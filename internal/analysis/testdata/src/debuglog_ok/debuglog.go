// Corrected form: every Debug call with a non-constant argument is
// asked for only when debug is on.
package endpoint

import (
	"context"
	"log/slog"
)

type agent struct {
	log *slog.Logger
}

const stage = "dispatch"

func (a *agent) finish(ctx context.Context, id string, attempt int) {
	if a.log.Enabled(ctx, slog.LevelDebug) {
		a.log.Debug("task completed", "task_id", id)
		for i := 0; i < attempt; i++ {
			a.log.Debug("attempt", "n", i)
		}
	}
	if attempt > 1 && (a.log.Enabled(ctx, slog.LevelDebug)) {
		a.log.Debug("task retried", "attempt", attempt)
	}
	// Constants box nothing that has to be allocated.
	a.log.Debug("scheduling pass", "stage", stage, "managers", 2)
	// Debug at other levels is not this analyzer's concern.
	a.log.Info("task completed", "task_id", id)
}
