#!/usr/bin/env python3
"""Check the reproduction's qualitative acceptance criteria (DESIGN.md)
against a results directory produced by:

    cargo run --release -p miopt-harness -- --all --csv <dir>

Usage: python3 scripts/check_shapes.py [results_dir]
"""
import csv
import sys
from pathlib import Path

RESULTS = Path(sys.argv[1] if len(sys.argv) > 1 else "results")

INSENSITIVE = ["DGEMM", "SGEMM", "CM"]
THROUGHPUT = ["FwAct", "FwLRN", "BwAct"]
REUSE = [
    "FwBN", "FwPool", "FwSoft", "BwSoft", "BwPool", "FwGRU", "FwLSTM",
    "FwBwGRU", "FwBwLSTM", "BwBN", "FwFc",
]

passed = []
failed = []


def check(name, cond, detail=""):
    (passed if cond else failed).append((name, detail))


def load(fig):
    path = RESULTS / f"{fig}.csv"
    rows = {}
    with open(path) as f:
        reader = csv.DictReader(f)
        for row in reader:
            rows[row["workload"]] = {k: float(v) for k, v in row.items() if k != "workload"}
    return rows


def main():
    f6 = load("fig6_exec_time")
    f7 = load("fig7_dram_accesses")
    f8 = load("fig8_cache_stalls")
    f9 = load("fig9_row_hits")
    f10 = load("fig10_opt_exec_time")
    f13 = load("fig13_opt_rows")

    # --- Figure 6 categories ---
    for w in INSENSITIVE:
        spread = max(abs(f6[w]["CacheR"] - 1), abs(f6[w]["CacheRW"] - 1))
        check(f"fig6 {w} insensitive (<7% spread)", spread < 0.07, f"spread={spread:.3f}")
    for w in THROUGHPUT:
        best_cached = min(f6[w]["CacheR"], f6[w]["CacheRW"])
        check(f"fig6 {w} caching hurts", best_cached > 1.02, f"best cached={best_cached:.3f}")
    for w in REUSE:
        best_cached = min(f6[w]["CacheR"], f6[w]["CacheRW"])
        check(f"fig6 {w} caching helps", best_cached < 0.98, f"best cached={best_cached:.3f}")

    # Magnitudes: caching helps up to ~29%, hurts up to ~24%.
    biggest_gain = min(min(f6[w]["CacheR"], f6[w]["CacheRW"]) for w in REUSE)
    check("fig6 max speedup in 12-45% band", 0.55 < biggest_gain < 0.88, f"{biggest_gain:.3f}")
    biggest_loss = max(min(f6[w]["CacheR"], f6[w]["CacheRW"]) for w in THROUGHPUT)
    check("fig6 max slowdown in 5-60% band", 1.05 < biggest_loss < 1.60, f"{biggest_loss:.3f}")

    # --- Figure 7 demand reductions ---
    for w, lo, hi in [("SGEMM", 0.08, 0.40), ("DGEMM", 0.10, 0.45)]:
        check(
            f"fig7 {w} read caching cuts DRAM to 8-45%",
            lo < f7[w]["CacheR"] < hi,
            f"CacheR={f7[w]['CacheR']:.3f}",
        )
    check("fig7 FwFc reduction >=80%", f7["FwFc"]["CacheR"] < 0.20, f"{f7['FwFc']['CacheR']:.3f}")
    for w in THROUGHPUT:
        check(
            f"fig7 {w} ~no reduction (>85%)",
            f7[w]["CacheR"] > 0.85,
            f"CacheR={f7[w]['CacheR']:.3f}",
        )
    for w in ["BwPool", "BwBN"]:
        check(
            f"fig7 {w} write caching helps further",
            f7[w]["CacheRW"] < f7[w]["CacheR"] - 0.03,
            f"RW={f7[w]['CacheRW']:.3f} R={f7[w]['CacheR']:.3f}",
        )

    # --- Figure 8 stalls ---
    for w in THROUGHPUT + ["FwPool"]:
        cached = max(f8[w]["CacheR"], f8[w]["CacheRW"])
        check(f"fig8 {w} cached stalls >= 0.5/req", cached > 0.5, f"{cached:.3f}")
    for w in f8:
        check(f"fig8 {w} uncached ~0 stalls", f8[w]["Uncached"] < 0.01, f"{f8[w]['Uncached']:.4f}")

    # --- Figure 9 row locality ---
    for w in ["FwAct", "FwLRN", "BwAct", "FwPool"]:
        check(
            f"fig9 {w} caching hurts row hits",
            min(f9[w]["CacheR"], f9[w]["CacheRW"]) < f9[w]["Uncached"] - 0.02,
            f"unc={f9[w]['Uncached']:.3f} r={f9[w]['CacheR']:.3f} rw={f9[w]['CacheRW']:.3f}",
        )
    for w in ["BwBN", "FwFc"]:
        check(
            f"fig9 {w} caching improves row hits",
            max(f9[w]["CacheR"], f9[w]["CacheRW"]) > f9[w]["Uncached"] + 0.02,
            f"unc={f9[w]['Uncached']:.3f} r={f9[w]['CacheR']:.3f} rw={f9[w]['CacheRW']:.3f}",
        )

    # --- Figures 10-13 ladder ---
    matched = 0
    for w in f10:
        if f10[w]["CacheRW-PCby"] <= 1.08:
            matched += 1
    check(
        "fig10 PCby within 8% of static best for >=14/17",
        matched >= 14,
        f"matched {matched}/17",
    )
    for w in ["FwLRN", "FwAct"]:
        check(
            f"fig10 optimizations recover {w} vs StaticWorst",
            f10[w]["CacheRW-PCby"] <= f10[w]["StaticWorst"] + 0.01,
            f"PCby={f10[w]['CacheRW-PCby']:.3f} worst={f10[w]['StaticWorst']:.3f}",
        )
    for w in ["BwAct", "FwAct"]:
        check(
            f"fig13 CR restores {w} row locality",
            f13[w]["CacheRW-CR"] >= f13[w]["CacheRW-AB"] - 0.01,
            f"AB={f13[w]['CacheRW-AB']:.3f} CR={f13[w]['CacheRW-CR']:.3f}",
        )

    print(f"\n{'='*60}\nPASS {len(passed)}  FAIL {len(failed)}\n{'='*60}")
    for name, detail in failed:
        print(f"FAIL  {name}  [{detail}]")
    if "-v" in sys.argv:
        for name, detail in passed:
            print(f"pass  {name}  [{detail}]")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
