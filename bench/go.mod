module pimmine/bench

go 1.22

require pimmine v0.0.0

replace pimmine => ../
