"""Simulated computer-vision substrate for the AR application.

The paper's AR pipeline is OpenCV SURF + brute-force matching on real
images; no camera or image corpus exists here, so this package uses a
two-fidelity substitution (documented in DESIGN.md):

* **semantics** -- objects carry deterministic synthetic descriptor sets
  (unit vectors with keypoint geometry); frames are noisy views of an
  object, and the real matching pipeline (kNN + ratio test + symmetry
  test + RANSAC) runs on those vectors, so accuracy/false-negative
  experiments are genuine computations;
* **timing** -- runtimes come from a cost model calibrated to the
  paper's measured device speeds (Figures 3(a), 3(b), 3(h)), driven by
  the paper's feature counts per resolution, so speed-up *ratios* are
  preserved without needing the authors' hardware.
"""

from repro.vision.batch import (BatchObjectMatcher, CandidateMatrixCache,
                                CandidateStack)
from repro.vision.camera import CameraModel, Resolution
from repro.vision.codec import CompressionModel, JPEG90
from repro.vision.costmodel import DEVICES, DeviceProfile
from repro.vision.database import ObjectDatabase, ObjectRecord
from repro.vision.features import (FeatureExtractor, Frame, ObjectModel,
                                   expected_feature_count)
from repro.vision.matcher import MatchOutcome, ObjectMatcher

__all__ = [
    "BatchObjectMatcher",
    "CameraModel",
    "CandidateMatrixCache",
    "CandidateStack",
    "CompressionModel",
    "DEVICES",
    "DeviceProfile",
    "FeatureExtractor",
    "Frame",
    "JPEG90",
    "MatchOutcome",
    "ObjectDatabase",
    "ObjectMatcher",
    "ObjectModel",
    "ObjectRecord",
    "Resolution",
    "expected_feature_count",
]
