"""Command-line front end: thin shells over the library.

Exit codes: 0 success, 1 protocol/verdict failure or unreadable file,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import replace

from . import authority, curve, experiments, scenarios, wire
from .crypto import ManualClock
from .errors import FogcaError
from .integrity import AffinityStore, compute_ivv, verify_ivv


def _curve_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--curve", choices=tuple(curve.PRESETS),
                        default="toy17")


def count(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return int(text)


def identity(text: str) -> str:
    if not 1 <= len(text.encode()) <= wire.MAX_IDENTITY_LEN:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not 1-{wire.MAX_IDENTITY_LEN} UTF-8 bytes")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fogca",
        description="Fog-hosted CA authentication suite: handshakes, "
                    "attack scenarios, integrity checks, placement study.")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("setup", help="generate a CA and print its announcement")
    _curve_arg(p)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("register", help="register one child and confirm its key")
    _curve_arg(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--id", type=identity, default="child-01")

    p = sub.add_parser("handshake",
                       help="register K children and run mutual authentication")
    _curve_arg(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--nodes", type=count, default=3)

    p = sub.add_parser("peer", help="peer key exchange relayed by the authority")
    _curve_arg(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--from", dest="from_id", type=identity, default="child-a")
    p.add_argument("--to", dest="to_id", type=identity, default="child-b")

    p = sub.add_parser("attack", help="run a seeded adversary scenario")
    p.add_argument("--scenario", choices=scenarios.SCENARIOS, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("ivv", help="compare a device report against a baseline")
    p.add_argument("--profile", required=True,
                   help="affinity baseline file (one device per line)")
    p.add_argument("--report", required=True,
                   help="reported profile file (same format)")

    p = sub.add_parser("experiment", help="placement study run, CSV output")
    p.add_argument("--setting", choices=sorted(experiments.SETTING_FRACTIONS),
                   required=True)
    p.add_argument("--nodes", type=count, default=40)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    return parser


class _Fleet(scenarios.Fleet):
    """A library-only fleet whose clock moves 7 ms before each
    registration."""

    def register(self, ident: bytes):
        self.clock.advance(7)
        return super().register(ident)


def cmd_setup(args) -> int:
    params = curve.load_preset(args.curve)
    state, announcement = authority.setup(params, random.Random(args.seed))
    print(wire.encode(announcement).hex())
    return 0


def cmd_register(args) -> int:
    params = curve.load_preset(args.curve)
    ident = args.id.encode()
    fleet = _Fleet(params, random.Random(args.seed), ManualClock())
    child = fleet.register(ident)
    same = fleet.authority.sessions[ident][1] == child.ca_session[1]
    print(f"registered {args.id}: auth key installed, "
          f"confirmation key-agreement: {'OK' if same else 'MISMATCH'}")
    return 0 if same else 1


def cmd_handshake(args) -> int:
    params = curve.load_preset(args.curve)
    idents = [f"child-{i:02d}".encode() for i in range(args.nodes)]
    fleet = _Fleet(params, random.Random(args.seed), ManualClock())
    children = {ident: fleet.register(ident) for ident in idents}
    failures = 0
    for ident, child in children.items():
        fleet.clock.advance(11)
        resp = fleet.authority.handle_auth_request(child.auth_init())
        key = child.auth_finish(resp)
        ok = fleet.authority.sessions[ident][1] == key
        failures += 0 if ok else 1
        print(f"{ident.decode()}: key-agreement: {'OK' if ok else 'FAILED'}")
    return 0 if failures == 0 else 1


def cmd_peer(args) -> int:
    params = curve.load_preset(args.curve)
    a, b = args.from_id.encode(), args.to_id.encode()
    fleet = _Fleet(params, random.Random(args.seed), ManualClock())
    children = {ident: fleet.register(ident) for ident in (a, b)}
    target, relay = fleet.authority.relay_peer_request(
        a, children[a].peer_init(b))
    initiator, challenge = children[target].peer_respond(relay)
    peer_id, proof = children[a].peer_accept(challenge)
    children[b].peer_verify(proof, initiator)
    same = children[a].peer_sessions[b] == children[b].peer_sessions[a]
    print(f"peer session {args.from_id} <-> {args.to_id}: "
          f"{'established, keys equal' if same else 'KEY MISMATCH'}")
    return 0 if same else 1


def cmd_attack(args) -> int:
    reports = scenarios.run_scenario(args.scenario, args.seed)
    ok = True
    for report in reports:
        if report.name == "passive":
            verdict = ("protocol completed, no secrets on the wire"
                       if report.blocked and report.completed else "LEAKED")
            ok &= report.blocked and report.completed
            print(f"{report.name}: {verdict} ({report.notes})")
        else:
            shown = [v for v in report.observed
                     if v not in ("key-agreement", "peer-established")]
            ok &= report.blocked
            print(f"{report.name}: {shown[0] if shown else 'NOT BLOCKED'}"
                  f" -- attack {'blocked' if report.blocked else 'SUCCEEDED'}")
        # adversary transcript: one captured message per line, hex
        for line in report.transcript_jsonl.splitlines():
            entry = json.loads(line)
            print(f"  {entry['action']} {entry['payload']}")
    return 0 if ok else 1


def cmd_ivv(args) -> int:
    baseline_store = AffinityStore.load(args.profile)
    report_store = AffinityStore.load(args.report)
    failures = 0
    for device_id, rec in sorted(report_store.records.items()):
        try:
            base = baseline_store.get(device_id)
        except FogcaError:
            print(f"{device_id.decode(errors='replace')}: unknown device")
            failures += 1
            continue
        verdict = verify_ivv(base.profile, rec.profile)
        if verdict.match:
            print(f"{device_id.decode(errors='replace')}: match "
                  f"(ivv {compute_ivv(rec.profile).hex()[:16]})")
        else:
            failures += 1
            print(f"{device_id.decode(errors='replace')}: MISMATCH "
                  f"in {', '.join(verdict.diff)}")
    return 0 if failures == 0 else 1


def cmd_experiment(args) -> int:
    workload = replace(experiments.DEFAULT_WORKLOAD, node_count=args.nodes)
    stats = experiments.run_experiment(args.setting, workload, args.seed)
    experiments.export_csv([(args.setting, args.nodes, stats)], args.out)
    print(f"{args.setting} nodes={args.nodes}: "
          f"reg mean {stats.registration.mean_ms:.1f} ms, "
          f"auth mean {stats.auth.mean_ms:.1f} ms, "
          f"retransmits {stats.retransmission_count} -> {args.out}")
    return 0


COMMANDS = {
    "setup": cmd_setup,
    "register": cmd_register,
    "handshake": cmd_handshake,
    "peer": cmd_peer,
    "attack": cmd_attack,
    "ivv": cmd_ivv,
    "experiment": cmd_experiment,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    if args.command == "peer" and args.from_id == args.to_id:
        parser.error("--from and --to must name two devices")
    try:
        return COMMANDS[args.command](args)
    except (FogcaError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
