module bestpeer/benchmark

go 1.22

require bestpeer v0.0.0

replace bestpeer => ../
