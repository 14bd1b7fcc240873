// Seeded violations: Debug calls that box their arguments while debug
// is off.
package endpoint

import (
	"context"
	"log/slog"
)

type agent struct {
	log, other *slog.Logger
}

func (a *agent) finish(ctx context.Context, id string, attempt int, args []any) {
	a.log.Debug("task completed", "task_id", id) // want "a.log.Debug boxes its arguments"
	if a.other.Enabled(ctx, slog.LevelDebug) {
		a.log.Debug("task completed", "attempt", attempt) // want "a.log.Debug boxes its arguments"
	}
	if a.log.Enabled(ctx, slog.LevelInfo) {
		a.log.Debug("task completed", "task_id", id) // want "a.log.Debug boxes its arguments"
	}
	if a.log.Enabled(ctx, slog.LevelDebug) || attempt > 1 {
		a.log.Debug("task completed", "task_id", id) // want "a.log.Debug boxes its arguments"
	}
	if a.log.Enabled(ctx, slog.LevelDebug) {
	} else {
		a.log.Debug("task completed", "task_id", id) // want "a.log.Debug boxes its arguments"
	}
	a.log.Debug("task completed", args...) // want "a.log.Debug boxes its arguments"
}
