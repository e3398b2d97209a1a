//go:build !amd64

package buildtags

func width() int { return 1 }
