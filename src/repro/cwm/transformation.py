"""CWM Transformation package: source-to-target mapping metadata.

The metaclasses that record *what maps to what* between warehouse
layers, and :class:`TransformationBuilder` to build such models.  The
metaclasses are part of :func:`~repro.cwm.assembly.cwm_metamodel`, and
the model lint (:func:`~repro.analysis.lint_model`) checks step
precedence and chained transformations in them.  No platform service
records its mappings here yet: ETL jobs and the MDA engine's QVT
transformations keep their own definitions.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.mof.kernel import (
    MetaAttribute,
    MetaClass,
    MetaReference,
    ModelExtent,
    MofElement,
)


def transformation_classes() -> List[MetaClass]:
    """The metaclasses of the CWM Transformation package."""
    return [
        MetaClass(
            "Transformation",
            superclass="ModelElement",
            attributes=[
                MetaAttribute("function", "string"),
                MetaAttribute("isPrimary", "boolean", default=False),
            ],
            references=[
                MetaReference("source", "ModelElement", many=True),
                MetaReference("target", "ModelElement", many=True),
            ],
        ),
        MetaClass(
            "TransformationTask",
            superclass="ModelElement",
            references=[
                MetaReference("transformation", "Transformation",
                              many=True),
            ],
        ),
        MetaClass(
            "TransformationStep",
            superclass="ModelElement",
            references=[
                MetaReference("task", "TransformationTask",
                              required=True),
                MetaReference("precedence", "TransformationStep",
                              many=True),
            ],
        ),
        MetaClass(
            "TransformationActivity",
            superclass="Package",
            references=[
                MetaReference("step", "TransformationStep", many=True,
                              composite=True),
            ],
        ),
        MetaClass(
            "ClassifierMap",
            superclass="ModelElement",
            references=[
                MetaReference("sourceClassifier", "Classifier",
                              many=True),
                MetaReference("targetClassifier", "Classifier",
                              many=True),
                MetaReference("featureMap", "FeatureMap", many=True,
                              composite=True),
            ],
        ),
        MetaClass(
            "FeatureMap",
            superclass="ModelElement",
            attributes=[
                MetaAttribute("function", "string"),
            ],
            references=[
                MetaReference("sourceFeature", "Feature", many=True),
                MetaReference("targetFeature", "Feature", many=True),
            ],
        ),
    ]


class TransformationBuilder:
    """Ergonomic construction of CWM Transformation models."""

    def __init__(self, extent: ModelExtent):
        self.extent = extent

    def activity(self, name: str) -> MofElement:
        return self.extent.create("TransformationActivity", name=name)

    def task(self, name: str) -> MofElement:
        return self.extent.create("TransformationTask", name=name)

    def step(self, activity: MofElement, name: str, task: MofElement,
             after: Sequence[MofElement] = ()) -> MofElement:
        step = self.extent.create("TransformationStep", name=name)
        step.link("task", task)
        for predecessor in after:
            step.link("precedence", predecessor)
        activity.link("step", step)
        return step

    def transformation(self, name: str,
                       sources: Sequence[MofElement] = (),
                       targets: Sequence[MofElement] = (),
                       function: Optional[str] = None) -> MofElement:
        transformation = self.extent.create("Transformation", name=name)
        if function is not None:
            transformation.set("function", function)
        for source in sources:
            transformation.link("source", source)
        for target in targets:
            transformation.link("target", target)
        return transformation

    def classifier_map(self, name: str, source: MofElement,
                       target: MofElement) -> MofElement:
        mapping = self.extent.create("ClassifierMap", name=name)
        mapping.link("sourceClassifier", source)
        mapping.link("targetClassifier", target)
        return mapping

    def feature_map(self, classifier_map: MofElement, name: str,
                    source: MofElement, target: MofElement,
                    function: Optional[str] = None) -> MofElement:
        mapping = self.extent.create("FeatureMap", name=name)
        if function is not None:
            mapping.set("function", function)
        mapping.link("sourceFeature", source)
        mapping.link("targetFeature", target)
        classifier_map.link("featureMap", mapping)
        return mapping
