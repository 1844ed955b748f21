module mixnn/bench

go 1.22

require mixnn v0.0.0

replace mixnn => ../
