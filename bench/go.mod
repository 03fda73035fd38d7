module stark/bench

go 1.22

require stark v0.0.0

replace stark => ../
