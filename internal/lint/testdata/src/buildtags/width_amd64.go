package buildtags

func width() int { return 4 }
