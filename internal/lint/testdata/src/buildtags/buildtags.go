// Package buildtags declares one name in an architecture-specific pair of
// files; the loader must type-check only the one the go command builds.
package buildtags

// Lanes reports how many values width processes at once.
func Lanes() int { return width() }
