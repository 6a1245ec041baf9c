"""Seeded benchmark inputs.

Every input is derived from the benchmark seed alone: pipeline seeds for the
built-in scenes, and generated galley scenes for ``order_search``. Generation
uses ``random.Random`` seeded with a string, which is stable across processes
and Python hash seeds.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Distinct inputs per benchmark run; iterations cycle through them. Every run
# completes at least one pass over its pool, so the pools are sized for a pass
# to fit in a run with room to spare (a pipeline pass takes about 15 s, an
# order_search pass about 16 s). Each generated order_search scene is
# validated during set-up.
PIPELINE_POOL = 3
ORDER_SEARCH_POOL = 4

# workload -> scenes/<name>.json, each run with scenes/<name>_goal.json
PIPELINE_SCENES = {
    "kitchen_pipeline": ("kitchen",),
    "galley_pipeline": ("galley_block", "blocked_aisle"),
}
WORKLOADS = (*PIPELINE_SCENES, "order_search")

# order_search layout, meters
FLOOR_X = 5.0
AISLE_Y = 1.8          # aisle center line
AISLE_WIDTH = 1.2      # counter face to island face
PANEL_WIDTH = 0.6
PANEL_LEN = 0.62
PIVOT_Z = 0.15
COUNTER_DEPTH = 0.6
COUNTER_HEIGHT = 0.9
THICK = 0.015          # half thickness of panels and drawer fronts


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def pipeline_seeds(workload: str, seed: int) -> list[int]:
    """Simulator seeds for the run-all workloads, one per pool slot."""
    return [_rng(workload, seed, i).randrange(2 ** 31) for i in range(PIPELINE_POOL)]


def _box(center, half) -> dict:
    return {"center": [float(v) for v in center],
            "half_extents": [float(v) for v in half], "yaw_deg": 0.0}


def _fold_down(part_id: str, cx: float, face_y: float, facing: float) -> dict:
    """Panel hinged at its bottom edge that folds into the aisle.

    ``facing`` is -1 for a panel on the north counter (opens south) and +1 for
    one on the south island (opens north).
    """
    y = face_y + facing * THICK
    return {
        "id": part_id,
        "shape": _box((cx, y, PIVOT_Z + PANEL_LEN / 2.0),
                      (PANEL_WIDTH / 2.0, THICK, PANEL_LEN / 2.0)),
        "joint": {"kind": "revolute", "axis": [-facing, 0.0, 0.0],
                  "pivot": [cx, y, PIVOT_Z], "limits_deg": [0.0, 90.0]},
        "handle": [cx, face_y + facing * 2 * THICK, PIVOT_Z + PANEL_LEN - 0.02],
    }


def _drawer(part_id: str, cx: float, face_y: float, facing: float) -> dict:
    y = face_y + facing * THICK
    return {
        "id": part_id,
        "shape": _box((cx, y, 0.7), (0.225, THICK, 0.125)),
        "joint": {"kind": "prismatic", "axis": [0.0, facing, 0.0],
                  "limits_m": [0.0, 0.15]},
        "handle": [cx, face_y + facing * 2 * THICK, 0.7],
    }


def order_search_scene(seed: int, index: int) -> tuple[dict, dict]:
    """Galley with two facing fold-down panels whose open panels overlap.

    A north counter and a south island face each other across an aisle of
    about 1.2 m. Each carries one fold-down panel near x = 1.9 and one drawer,
    the island's to the west of the panels and the counter's to the east. An
    open panel severs the aisle, and the two open panels overlap, so the goal
    "everything open" is infeasible by construction: every candidate order is
    evaluated. The seed jitters the panel and drawer positions and the aisle
    width. Returns (scene document, goal document).
    """
    rng = _rng("order_search", seed, index)
    width = AISLE_WIDTH + rng.uniform(-0.03, 0.02)
    north_y = AISLE_Y + width / 2.0
    south_y = AISLE_Y - width / 2.0
    north_panel_x = 1.9 + rng.uniform(-0.1, 0.1)
    south_panel_x = north_panel_x + rng.uniform(-0.1, 0.1)
    counter = _box((FLOOR_X / 2.0, north_y + COUNTER_DEPTH / 2.0, COUNTER_HEIGHT / 2.0),
                   (FLOOR_X / 2.0, COUNTER_DEPTH / 2.0, COUNTER_HEIGHT / 2.0))
    island = _box((FLOOR_X / 2.0, south_y - COUNTER_DEPTH / 2.0, COUNTER_HEIGHT / 2.0),
                  (FLOOR_X / 2.0, COUNTER_DEPTH / 2.0, COUNTER_HEIGHT / 2.0))
    parts = [
        _fold_down("north_panel", north_panel_x, north_y, -1.0),
        _fold_down("south_panel", south_panel_x, south_y, 1.0),
        _drawer("north_drawer", 3.6 + rng.uniform(-0.15, 0.15), north_y, -1.0),
        _drawer("south_drawer", 0.9 + rng.uniform(-0.05, 0.1), south_y, 1.0),
    ]
    scene = {
        "schema_version": 1,
        "base": {"obstacles": [counter, island],
                 "floor_bounds": {"min": [0.0, south_y - COUNTER_DEPTH],
                                  "max": [FLOOR_X, north_y + COUNTER_DEPTH]}},
        "parts": parts,
        "robot": {"start": [0.45, AISLE_Y, 0.0]},
    }
    goal = {p["id"]: (90.0 if p["joint"]["kind"] == "revolute" else 0.15)
            for p in parts}
    return scene, goal


PANELS = ("north_panel", "south_panel")


def write_order_search_inputs(seed: int, out_dir: Path) -> list[dict]:
    """Write the order_search scene pool; returns one entry per scene with
    the scene, full-goal and single-panel subgoal paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(ORDER_SEARCH_POOL):
        scene, goal = order_search_scene(seed, i)
        entry = {"seed": seed, "scene": out_dir / f"scene_{i}.json",
                 "goal": out_dir / f"goal_{i}.json", "subgoals": []}
        entry["scene"].write_text(json.dumps(scene, indent=2) + "\n")
        entry["goal"].write_text(json.dumps(goal, indent=2) + "\n")
        for panel in PANELS:
            sub = out_dir / f"goal_{i}_{panel}.json"
            sub.write_text(json.dumps({panel: goal[panel]}) + "\n")
            entry["subgoals"].append(sub)
        entries.append(entry)
    return entries
