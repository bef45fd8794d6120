#!/usr/bin/env python
"""Multi-channel P2P live streaming on the discrete-event simulator.

Builds a 3-channel deployment with Zipf channel popularity, helpers
partitioned across channels, Poisson peer churn, and R2HS helper selection
at every peer.  Reports per-channel populations, server workload against
the minimum bandwidth deficit (paper Fig. 5), and helper utilization.

Run:  python examples/multichannel_streaming.py
"""

import numpy as np

import repro
from repro.analysis import render_series_table, sparkline
from repro.metrics import server_load_report
from repro.sim import StreamingSystem
from repro.spec import ChurnSpec, ExperimentSpec, TopologySpec
from repro.workloads import zipf_popularity


def main() -> None:
    popularity = zipf_popularity(3, exponent=1.0)
    spec = ExperimentSpec(
        backend="scalar",
        topology=TopologySpec(
            num_peers=60,
            num_helpers=9,          # 3 per channel
            num_channels=3,
            channel_bitrates=[300.0, 250.0, 200.0],
            channel_popularity=popularity,
            round_duration=1.0,
        ),
        churn=ChurnSpec(arrival_rate=0.1, mean_lifetime=300.0),
    )
    system = StreamingSystem(
        spec,
        lambda h, rng: repro.R2HSLearner(h, rng=rng, u_max=900.0),
        rng=7,
    )

    topology = spec.topology
    print("Multi-channel deployment")
    print(f"  channels: {topology.num_channels} with popularity "
          f"{np.round(popularity, 3).tolist()}")
    print(f"  helpers : {topology.num_helpers} (3 per channel), "
          f"bandwidth levels {list(spec.capacity.levels)}")
    print(f"  peers   : {topology.num_peers} initial + Poisson churn\n")

    trace = system.run(600)

    # Per-channel population.
    print("Channel populations (online peers at the end)")
    online = system.online_peers()
    for channel in system.channels:
        members = [p for p in online if p.channel_id == channel.channel_id]
        rates = [p.average_rate for p in members]
        print(f"  channel {channel.channel_id}: {len(members):3d} peers, "
              f"bitrate {channel.bitrate:.0f} kbit/s, "
              f"mean received {np.mean(rates) if rates else 0:.0f} kbit/s")

    # Fig. 5 view: server workload vs. the minimum bandwidth deficit.
    report = server_load_report(trace)
    print("\nServer workload vs. minimum bandwidth deficit (kbit/s)")
    print(render_series_table(
        ["server load", "min deficit", "no-helper load"],
        [report.server_load, report.min_deficit, report.no_helper_load],
        num_points=10,
    ))
    print(f"\n  helpers absorb {100 * report.saving_fraction:.1f}% of demand")
    print(f"  online peers over time: {sparkline(trace.online_peers.astype(float))}")
    print(f"  server load over time : {sparkline(report.server_load)}")


if __name__ == "__main__":
    main()
