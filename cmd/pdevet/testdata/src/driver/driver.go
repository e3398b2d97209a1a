// Package driver is the pdevet driver's own fixture. It carries exactly two
// stable findings — one walltime violation and one stale allow — so the
// driver tests can pin the full pipeline: text output, exit status, and
// unusedallow reporting.
package driver

import "time"

// now violates walltime deliberately.
func now() time.Time {
	return time.Now()
}

//pdevet:allow floateq nothing here compares floats; kept to exercise unusedallow
func idle() {}
