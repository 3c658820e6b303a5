module eventnet/bench

go 1.24

require eventnet v0.0.0

replace eventnet => ../
