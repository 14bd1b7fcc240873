// Package testlog captures a component's structured logs so that a
// test can assert on the lines it wrote.
package testlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
)

// Buffer is a log sink that the component's goroutines write and the
// test reads.
type Buffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

// New returns a text logger at Info level and the buffer it writes to.
func New() (*slog.Logger, *Buffer) {
	buf := &Buffer{}
	return slog.New(slog.NewTextHandler(buf, nil)), buf
}

// NewDebug returns a JSON logger at Debug level and the buffer it
// writes to, for a test that reads back the attributes of debug
// records (Records).
func NewDebug() (*slog.Logger, *Buffer) {
	buf := &Buffer{}
	return slog.New(slog.NewJSONHandler(buf, &slog.HandlerOptions{Level: slog.LevelDebug})), buf
}

func (l *Buffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

// String returns everything logged so far.
func (l *Buffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// Records returns every record a NewDebug logger wrote with message
// msg, as its attributes by key, the time left out.
func (l *Buffer) Records(msg string) ([]map[string]any, error) {
	var out []map[string]any
	sc := bufio.NewScanner(strings.NewReader(l.String()))
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, err
		}
		if rec[slog.MessageKey] == msg {
			delete(rec, slog.TimeKey)
			out = append(out, rec)
		}
	}
	return out, sc.Err()
}
