"""Numerical pleated surfaces over pants decompositions of closed
surfaces, bending cocycles, and the first variation of hyperbolic
volume along quake-bend paths in PSL(2, C) character varieties."""

from .errors import (AngleUnwrapFailure, DegenerateConfiguration,
                     DegenerateLength, DegenerateTetrahedron,
                     DegenerateTriangle, EndpointsMismatch, IdentityMap,
                     InvalidDecomposition, NonHyperbolicParameters,
                     NotAdapted, OrientationTrackingFailure, PleatbendError,
                     ReducibleRepresentation, SampleEvaluationFailure,
                     SingularMatrix, UnknownLetter)
from .moebius import (IsometryClass, MoebiusMap, ProjectivePoint, chordal,
                      classify, complex_length, cross_ratio, fixed_points,
                      normalizing_map, reduce_angle, trace_squared)
from .pleated import (AdaptednessReport, BendingData, PleatedRealization,
                      TruncationConvention, arc_bending, bending_data,
                      check_adapted, cuff_bending, leaf_bending, realize,
                      resolve_endpoints, shared_endpoint_check,
                      track_endpoints, truncated_geodesic_length,
                      truncated_length)
from .representation import (CharacterFingerprint, Representation,
                             RepresentationPath, commutator_trace,
                             conjugacy_residual, evaluate_word,
                             fenchel_nielsen_rep, fingerprint,
                             inclusion_relator_residual, jacobian_rank,
                             load_path, load_rep, path_from_dict,
                             path_from_parameters, path_from_reps,
                             path_to_dict, peripheral_fingerprint,
                             random_representation, rep_from_dict,
                             rep_from_trace_triple, rep_to_dict, save_path,
                             save_rep, standard_word_list)
from .topology import (BoundaryComponent, BoundaryInclusion, Cuff, CuffCrossing,
                       LeafCrossing, Lamination, OrientationAssignment,
                       PantsDecomposition, TransverseArc, build_lamination,
                       enumerate_orientations, load_document, save_document,
                       standard_decomposition, subdivide_arc)
from .volume import (LoopDefectReport, VolGammaResult, VolumePathResult,
                     angle_series, ideal_tetra_volume,
                     integrate_volume_change, lobachevsky, loop_defect,
                     schlafli_derivative, vol_gamma)

__version__ = "0.1.0"
