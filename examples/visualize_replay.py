#!/usr/bin/env python3
"""Watch a replay attack happen, instruction by instruction.

Attaches the pipeline tracer to the core, runs a 3-replay MicroScope
attack on a tiny victim, and renders:

1. the pipeline diagram — the victim's post-handle instructions fetch,
   execute, and die with an ``X`` (squashed) three times before finally
   retiring with an ``R``;
2. the replay trail of the transmit instruction — every dynamic
   instance with its fate;
3. the machine statistics report, where the attack shows up as a
   squash storm and a rock-bottom victim IPC.

Run:  python examples/visualize_replay.py
"""

from repro.core.recipes import replay_n_times
from repro.core.replayer import AttackEnvironment, Replayer
from repro.cpu.trace import PipelineTracer, render_pipeline
from repro.isa.program import ProgramBuilder
from repro.reporting import machine_report


def main():
    rep = Replayer(AttackEnvironment.build())
    tracer = PipelineTracer()
    rep.machine.attach(tracer)

    process = rep.create_victim_process(enclave=False)
    data = process.alloc(4096, "handle-page")
    secret = process.alloc(4096, "secret-page")
    process.write(secret, 42)
    program = (ProgramBuilder("tiny-victim")
               .li("r1", data)
               .li("r2", secret)
               .load("r3", "r1", 0, comment="replay-handle")
               .load("r4", "r2", 0)
               .fli("f0", 9.0)
               .fli("f1", 3.0)
               .fdiv("f2", "f0", "f1", comment="transmit")
               .halt().build())

    recipe = rep.module.provide_replay_handle(
        process, data, attack_function=replay_n_times(3))
    rep.launch_victim(process, program)
    rep.arm(recipe)
    rep.run_until_victim_done()

    print("=== pipeline view (victim context) ===")
    print(render_pipeline(tracer.for_context(0), max_width=90))

    print("\n=== replay trail of the transmit divide (instruction 6) ===")
    for instance in tracer.replays_of(index=6):
        fate = (f"retired @ {instance.retire_cycle}"
                if instance.retire_cycle is not None else
                f"squashed @ {instance.squash_cycle} "
                f"({instance.squash_reason})")
        issued = ("executed" if instance.issue_cycle is not None
                  else "never issued")
        print(f"  fetched @ {instance.fetch_cycle:>6}: {issued}, {fate}")

    print("\n=== machine report ===")
    print(machine_report(rep.machine, kernel=rep.kernel,
                         module=rep.module).render())


if __name__ == "__main__":
    main()
