module squall/bench

go 1.24

require squall v0.0.0

replace squall => ../
