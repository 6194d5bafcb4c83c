module lobstore/bench

go 1.22

require lobstore v0.0.0

replace lobstore => ../
