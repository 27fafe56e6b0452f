module pkgstream/bench

go 1.24

require pkgstream v0.0.0

replace pkgstream => ../
