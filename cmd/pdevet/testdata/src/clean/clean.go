// Package clean has no findings and no annotations: the driver tests use
// it to pin zero-exit behavior and empty output.
package clean

func ok() int { return 1 }
