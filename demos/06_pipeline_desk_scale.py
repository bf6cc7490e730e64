"""The full allocation pipeline at desk scale (about two minutes on a CPU).

Seed-train an over-provisioned three-block network on synthetic data where
blob size encodes the class, rank every per-scale channel by its trained
batchnorm magnitude, project each block onto the budget of the 3x3 conv it
replaced, then retrain the resulting architecture from scratch. Artifacts
land in ./pipeline_out; rerunning with the same seed reproduces them byte
for byte.
"""

from sakit import ProjectionConfig, run_pipeline, synthetic_dataset
from sakit.flops import network_flops
from sakit.presets import build_cifar_resnet, even_allocation
from sakit.training import TrainConfig

classes = 10
train_ds = synthetic_dataset(classes, per_class=40, size=32, seed=7, split="train")
val_ds = synthetic_dataset(classes, per_class=8, size=32, seed=7, split="val")
base = build_cifar_resnet(1, num_classes=classes, in_channels=1)
cfg = TrainConfig(epochs=6, batch_size=32, lr=0.1, milestones=(5,), seed=7,
                  augment_flags=("flip",), deterministic=True)

print("running seed-train -> projection -> retrain ...")
result = run_pipeline(base, [1, 2, 4], train_ds, val_ds, cfg,
                      ProjectionConfig(exponent=0.0), out_dir="pipeline_out")

even = even_allocation(base, [1, 2, 4])
print(f"\nlearned allocation vs even split (scales {result.plan.scales}):")
for k in sorted(result.plan.rows):
    print(f"  block {k}: learned {result.plan.rows[k]}  even {even.rows[k]}")

seed_macs = network_flops(result.seed_spec).total_macs
final_macs = network_flops(result.final_spec).total_macs
base_macs = network_flops(base).total_macs
print(f"\nMACs: seed {seed_macs / 1e6:.1f}M -> final {final_macs / 1e6:.1f}M "
      f"(baseline {base_macs / 1e6:.1f}M)")
print(f"final val top-1 {result.final_top1:.3f} (chance {1 / classes})")
print(f"artifacts in pipeline_out: {sorted(result.artifacts)}")
