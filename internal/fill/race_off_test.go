//go:build !race

package fill

const raceEnabled = false
