// Package testlog captures a component's structured logs so that a
// test can assert on the lines it wrote.
package testlog

import (
	"bytes"
	"log/slog"
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
