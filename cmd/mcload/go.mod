module mcsched/cmd/mcload

go 1.24

require mcsched v0.0.0

replace mcsched => ../..
