#!/usr/bin/env python3
"""Split a merged vbl-bench-v1 document into per-reclamation-domain files.

The reclamation benches (micro_reclaim, reclamation_cost) measure the
same structures under three domains: leaky (no-op ceiling), EBR (the
default) and VBR (lock-based lists only). CI uploads one JSON per
domain so a domain's trend can be tracked across runs without
re-filtering the merged document each time.

Only records from the reclamation benches are split; the figure benches
say nothing about reclamation and stay in the merged document alone.

Usage:
  tools/split_bench_domains.py --merged BENCH_abc.json --out-dir out/
"""

import argparse
import json
import os
import sys

def is_reclamation_bench(bench):
    """micro_reclaim stamps its binary name; reclamation_cost's panels
    stamp their titles ("vbl: leaky vs EBR vs VBR", ...)."""
    return bench == "micro_reclaim" or "leaky vs" in bench


def domain_of(structure):
    """Maps a structure name to its reclamation domain. Registry names
    suffix the non-default domain (-leaky, -vbr); micro_reclaim's
    primitive rows name the domain directly (guard/vbr, retire/vbr);
    churn rows carry a +pool/+bypass suffix on a registry name. EBR is
    the default everywhere it is not named."""
    base = structure.split("+")[0]
    if base.endswith("-leaky") or base.endswith("/leaky"):
        return "leaky"
    if base.endswith("-vbr") or base.endswith("/vbr") \
            or base.endswith("/vbr_mt"):
        return "vbr"
    return "ebr"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--merged", required=True,
                        help="merged vbl-bench-v1 document")
    parser.add_argument("--out-dir", required=True,
                        help="directory for the per-domain documents")
    args = parser.parse_args()

    try:
        with open(args.merged, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as err:
        print(f"error: cannot read {args.merged}: {err}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as err:
        # Truncated or hand-edited documents used to surface as a bare
        # stacktrace; name the file and parse position instead.
        print(f"error: {args.merged} is malformed JSON: {err}",
              file=sys.stderr)
        return 1
    if not isinstance(doc, dict):
        print(f"error: {args.merged}: top level is a JSON "
              f"{type(doc).__name__}, not an object", file=sys.stderr)
        return 1
    if doc.get("schema") != "vbl-bench-v1":
        print(f"error: {args.merged}: unknown schema "
              f"{doc.get('schema')!r}", file=sys.stderr)
        return 2

    by_domain = {}
    for index, record in enumerate(doc.get("records", [])):
        if not isinstance(record, dict):
            print(f"error: {args.merged}: record #{index} is a JSON "
                  f"{type(record).__name__}, not an object",
                  file=sys.stderr)
            return 1
        if not is_reclamation_bench(record.get("bench", "")):
            continue
        by_domain.setdefault(domain_of(record.get("structure", "")),
                             []).append(record)
    if not by_domain:
        print("error: no reclamation-bench records to split",
              file=sys.stderr)
        return 2

    os.makedirs(args.out_dir, exist_ok=True)
    for domain, records in sorted(by_domain.items()):
        context = dict(doc.get("context", {}))
        context["reclamation_domain"] = domain
        out_path = os.path.join(args.out_dir, f"BENCH_{domain}.json")
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"schema": "vbl-bench-v1", "context": context,
                       "records": records}, handle, indent=2)
            handle.write("\n")
        print(f"wrote {len(records)} {domain} record(s) to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
