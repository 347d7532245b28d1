"""Test-side dataset helpers shared by the test modules."""


def dataset_to_json_dict(config, train, eval_scenes) -> dict:
    """The whole dataset file as one JSON dict: the oracle of
    toybench.write_dataset, whose bytes are json.dumps of this dict, and the
    way tests build edited dataset files."""
    return {"config": config.to_json_dict(),
            "train": [s.to_json_dict() for s in train],
            "eval": [s.to_json_dict() for s in eval_scenes]}
