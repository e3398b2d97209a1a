module hybridpde/bench

go 1.22

require hybridpde v0.0.0

replace hybridpde => ../
