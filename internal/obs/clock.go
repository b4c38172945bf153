package obs

import "time"

// clockBase is the fixed reference every Stopwatch reading is taken
// against. time.Since consults only its monotonic reading.
var clockBase = time.Now()

// Stopwatch times one call, such as a controller's Decide or the decision
// service's table lookup, on the monotonic clock alone: StartStopwatch and
// Elapsed each take one time.Since(clockBase) reading, where time.Now would
// also read the wall clock. What it measures is for observability only and
// never feeds a decision, which is why the deterministic packages may use
// it.
type Stopwatch time.Duration

// StartStopwatch starts timing.
func StartStopwatch() Stopwatch { return Stopwatch(time.Since(clockBase)) }

// Elapsed returns the time since StartStopwatch.
func (s Stopwatch) Elapsed() time.Duration { return time.Since(clockBase) - time.Duration(s) }
