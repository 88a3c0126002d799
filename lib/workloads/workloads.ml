(** Workload generators for every experiment: the Table 1 application
    benchmarks (written against the system-neutral {!Api}), the
    microbenchmarks, and the storms and sweeps that {!Scenario} boots,
    faults and drives; {!Experiment} is the registry that sizes, checks
    and reports them. *)

module Api = Api
module Table1 = Table1
module Micro = Micro
module Ipc_stress = Ipc_stress
module Fault_sweep = Fault_sweep
module Recovery_sweep = Recovery_sweep
module Smp_scaling = Smp_scaling
module Vfs_walk = Vfs_walk
module Net_storm = Net_storm
module Fault_storm = Fault_storm
module Experiment = Experiment
module Scenario = Scenario
module Bench_ab = Bench_ab
