module patdnn/benchmark

go 1.24

require patdnn v0.0.0

replace patdnn => ../
