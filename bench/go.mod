module rmtk/bench

go 1.22

require rmtk v0.0.0

replace rmtk => ../
