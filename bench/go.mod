module d2cq/bench

go 1.24

require d2cq v0.0.0

replace d2cq => ../
