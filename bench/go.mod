module apichecker/bench

go 1.24

require apichecker v0.0.0

replace apichecker => ../
