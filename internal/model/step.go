package model

// Step advances the playback buffer over one chunk download, the buffer
// dynamics of Eq. (3) and Eq. (4): a download of dl seconds drains the
// buffer, stalling for (dl − B)+ once it runs dry; the chunk then adds
// chunkDur seconds, and whatever exceeds bufferMax is the buffer-full wait
// Δt before the next request. next is B_{k+1}.
//
// The (x)+ clamps are plain `x <= 0` compares rather than math.Max: they
// return exactly math.Max(x, 0) for every input, NaN (kept), ±Inf and −0
// (mapped to +0) included, and keep Step small enough to inline into the
// solver's enumeration, where it runs once per node.
//
//mpc:noalloc
func Step(buffer, dl, chunkDur, bufferMax float64) (rebuffer, next, wait float64) {
	rebuffer = dl - buffer
	if rebuffer <= 0 {
		rebuffer = 0
	}
	afterDrain := buffer - dl
	if afterDrain <= 0 {
		afterDrain = 0
	}
	afterDrain += chunkDur
	wait = afterDrain - bufferMax
	if wait <= 0 {
		wait = 0
	}
	return rebuffer, afterDrain - wait, wait
}
