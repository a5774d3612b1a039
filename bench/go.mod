module kadre/bench

go 1.22

require kadre v0.0.0

replace kadre => ../
