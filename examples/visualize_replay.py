#!/usr/bin/env python3
"""Watch a replay attack happen, instruction by instruction.

Attaches the event tracer to the machine, runs a 3-replay MicroScope
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
from repro.isa.program import ProgramBuilder
from repro.observability import EventTracer, render_pipeline
from repro.reporting import metrics_payload, render_metrics


def main():
    rep = Replayer(AttackEnvironment.build())
    tracer = EventTracer()
    rep.machine.attach_tracer(tracer)

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
    print(render_pipeline(tracer.instructions(0), max_width=90))

    print("\n=== replay trail of the transmit divide (instruction 6) ===")
    for instance in tracer.instructions(0, index=6):
        end = instance.ts + instance.dur
        fate = (f"retired @ {end}" if instance.cat == "pipeline" else
                f"squashed @ {end} ({instance.args['reason']})")
        issued = ("executed" if "issue" in instance.args
                  else "never issued")
        print(f"  fetched @ {instance.ts:>6}: {issued}, {fate}")

    print("\n=== machine report ===")
    print(render_metrics(metrics_payload(rep.machine)))

if __name__ == "__main__":
    main()
