//go:build race

package chain

// raceEnabled reports a -race build, whose instrumentation allocates
// where a plain build does not (crypto/sha256's AppendBinary pads the
// marshalled state through a temporary).
const raceEnabled = true
