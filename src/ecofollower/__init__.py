"""Car-following simulation and RL toolkit.

Trains an eco-driving longitudinal controller against recorded leader
trajectories and scores it, an IDM baseline, and the recorded behavior on
safety (TTC), efficiency (time headway), comfort (jerk), and fuel consumption.
"""

__version__ = "0.1.0"

from .ddpg import (DdpgAgent, ReplayBuffer, TrainConfig, TrainLogRow, TrainingError,
                   policy_controller, train)
from .env import (EnvConfig, EnvState, RolloutError, SimulatedTrace, StepOutcome,
                  reset, rollout_batch, step)
from .evaluate import (EvalConfig, IndicatorSummary, NonFiniteFuelError,
                       compare, evaluate_controller, evaluate_ground_truth,
                       export_distributions, pooled_steps, render_text, trace_from_event)
from .events import (CarFollowingEvent, ColumnMapping, DataError, DatasetSplit,
                     FitError, SchemaError, descriptive_stats,
                     extract_events, fit_lognormal_headway, load_events,
                     split_dataset, write_events)
from .idm import CalibrationError, IdmParams, calibrate_idm, desired_spacing, idm_accel, idm_controller
from .nets import Adam, Mlp, PolicyLoadError, load_policy, save_policy, soft_update
from .objectives import (HeadwayModel, RewardBreakdown, RewardConfig, RewardWeights,
                         f_fuel, f_headway, f_jerk, f_ttc, jerk, reward, time_headway, ttc)
from .vtmicro import (VtMicroCoefficients, VtMicroModel, fuel_rate, load_coefficients,
                      moe_exponent, reference_model)
