"""GeoJSON labeling CLI — the engine's equivalent of the reference's
companion crate ``polylabel_cmd`` (/root/reference/README.md:32-33):

    python -m polylabel_rs_ray.geojson_cli input.geojson -t 0.1 -o out.geojson

Reads a FeatureCollection of Polygon/MultiPolygon features, labels each
polygon (each MultiPolygon part independently — one ``polylabel`` call per
part, FIXTURES.md §4), and writes a FeatureCollection of Point features
carrying an ``_area`` property (mirroring labels.geojson:1; planar shoelace
area here — the reference CLI reports projected area).

The feature list becomes a Ray Dataset so arbitrarily large collections
stream through the same ``label_points`` stage as the table pipeline.
"""

from __future__ import annotations

import argparse
import json
import sys

import pyarrow as pa

from .sources.docs import RINGS_TYPE
from .stages.label import label_points


def features_to_table(features: list[dict], tolerance: float) -> pa.Table:
    ids, parts, rings_col, tols = [], [], [], []
    for fi, feat in enumerate(features):
        geom = feat.get("geometry") or {}
        gtype = geom.get("type")
        if gtype == "Polygon":
            polys = [geom["coordinates"]]
        elif gtype == "MultiPolygon":
            polys = geom["coordinates"]
        else:
            continue
        for pi, rings in enumerate(polys):
            ids.append(fi)
            parts.append(pi)
            rings_col.append([[list(map(float, pt)) for pt in ring] for ring in rings])
            tols.append(tolerance)
    return pa.table({
        "feature_idx": pa.array(ids, type=pa.int64()),
        "part_idx": pa.array(parts, type=pa.int64()),
        "rings": pa.array(rings_col, type=RINGS_TYPE),
        "tolerance": pa.array(tols, type=pa.float64()),
    })


def label_geojson(doc: dict, tolerance: float) -> dict:
    import ray

    table = features_to_table(doc.get("features", []), tolerance)
    # materialize() runs the plan once; to_arrow_refs() on the lazy plan
    # would first run it to read the schema, labelling every polygon twice
    ds = label_points(ray.data.from_arrow(table)).materialize()
    out = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    feats = []
    for row in out.to_pylist():
        props = {"_area": row["area"], "feature_idx": row["feature_idx"],
                 "part_idx": row["part_idx"]}
        if row["label_error"]:
            props["label_error"] = row["label_error"]
        feats.append({
            "type": "Feature",
            "properties": props,
            "geometry": {"type": "Point", "coordinates": [row["label_x"], row["label_y"]]},
        })
    return {"type": "FeatureCollection", "features": feats}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("input")
    ap.add_argument("-t", "--tolerance", type=float, default=1.0)
    ap.add_argument("-o", "--output", default=None)
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, ignore_reinit_error=True)

    with open(args.input) as f:
        doc = json.load(f)
    out = label_geojson(doc, args.tolerance)
    text = json.dumps(out)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text + "\n")
    ray.shutdown()


if __name__ == "__main__":
    main()
