module colza/benchmark

go 1.22

require colza v0.0.0

replace colza => ../
