(* An alias, kept only because perfbench/main.ml still names
   [Engine.Histogram] and the benchmark's sources stay fixed so its runs
   compare across commits.  Everything else uses [Ixtelemetry.Log_hist]. *)
include Ixtelemetry.Log_hist
