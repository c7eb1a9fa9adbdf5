//go:build race

package fill

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation makes testing.AllocsPerRun counts meaningless.
const raceEnabled = true
