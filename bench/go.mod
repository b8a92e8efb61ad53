module scalefree/bench

go 1.24

require scalefree v0.0.0

replace scalefree => ../
