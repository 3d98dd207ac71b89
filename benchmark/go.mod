module geodabs/benchmark

go 1.24

require geodabs v0.0.0

replace geodabs => ../
