//go:build linux

package main

import (
	"runtime"
	"syscall"
	"time"
)

// sleepUntil blocks until t; it returns at once when t has passed.
//
// A time.Sleep pacer overshoots each due time by up to a millisecond on
// Linux (the runtime's timers fire from a millisecond-resolution poll),
// which would make open-loop latency mostly measure the pacer. Instead the
// goroutine holds its OS thread for the sleep, drops that thread's timer
// slack to 1 ns and sleeps in nanosleep(2), which wakes within tens of
// microseconds of the due time. The thread is released again before the
// operation runs, so the operation's own I/O is scheduled as usual.
func sleepUntil(t time.Time) {
	if time.Until(t) <= 0 {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// PR_SET_TIMERSLACK applies to the calling thread only.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0)
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err == nil {
			return
		}
	}
}
