package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// alarm wakes one goroutine at a due time. The Go runtime rounds a
// parked timer up to the netpoller's millisecond, which at a 1 ms mean
// gap would make the generator the largest term in the open loop's
// latency (and make its lag depend on how idle the fabric leaves the
// scheduler). A timerfd is armed in nanoseconds and, read through
// os.File, parks the goroutine on the netpoller without holding a P,
// so the wake-up is as prompt as a socket's.
type alarm struct{ f *os.File }

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

// newAlarm returns an alarm backed by a timerfd, or by time.Sleep when
// the kernel refuses one.
func newAlarm() *alarm {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return &alarm{}
	}
	return &alarm{f: os.NewFile(fd, "timerfd")}
}

func (a *alarm) sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	if a.f != nil {
		// struct itimerspec{it_interval, it_value}: one shot after d.
		spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))}
		_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, a.f.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		var expirations [8]byte
		if errno == 0 {
			if _, err := a.f.Read(expirations[:]); err == nil {
				return
			}
		}
	}
	time.Sleep(time.Until(t))
}

func (a *alarm) close() {
	if a.f != nil {
		a.f.Close()
	}
}
