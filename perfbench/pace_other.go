//go:build !linux

package main

import "time"

// sleepUntil blocks until t. Elsewhere than Linux the pacer is time.Sleep;
// the generator reports its own lateness either way.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
