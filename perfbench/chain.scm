# Fixed 18-variable model for the discover-chain workload: a linear
# chain X00 -> X01 -> ... -> X15 plus the collider X15 -> Y <- W.
scm chain
var X00 { noise = normal(0.0, 1.0) }
var X01 { parents = [X00]; eq = "0.8*X00"; noise = normal(0.0, 1.0) }
var X02 { parents = [X01]; eq = "0.8*X01"; noise = normal(0.0, 1.0) }
var X03 { parents = [X02]; eq = "0.8*X02"; noise = normal(0.0, 1.0) }
var X04 { parents = [X03]; eq = "0.8*X03"; noise = normal(0.0, 1.0) }
var X05 { parents = [X04]; eq = "0.8*X04"; noise = normal(0.0, 1.0) }
var X06 { parents = [X05]; eq = "0.8*X05"; noise = normal(0.0, 1.0) }
var X07 { parents = [X06]; eq = "0.8*X06"; noise = normal(0.0, 1.0) }
var X08 { parents = [X07]; eq = "0.8*X07"; noise = normal(0.0, 1.0) }
var X09 { parents = [X08]; eq = "0.8*X08"; noise = normal(0.0, 1.0) }
var X10 { parents = [X09]; eq = "0.8*X09"; noise = normal(0.0, 1.0) }
var X11 { parents = [X10]; eq = "0.8*X10"; noise = normal(0.0, 1.0) }
var X12 { parents = [X11]; eq = "0.8*X11"; noise = normal(0.0, 1.0) }
var X13 { parents = [X12]; eq = "0.8*X12"; noise = normal(0.0, 1.0) }
var X14 { parents = [X13]; eq = "0.8*X13"; noise = normal(0.0, 1.0) }
var X15 { parents = [X14]; eq = "0.8*X14"; noise = normal(0.0, 1.0) }
var W { noise = normal(0.0, 1.0) }
var Y { parents = [X15, W]; eq = "X15 + W"; noise = normal(0.0, 1.0) }
