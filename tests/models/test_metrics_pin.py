"""Bit-level pins of every chain model's ``QueueMetrics``.

Each case solves one small configuration and compares every field of
the resulting :class:`~repro.models.QueueMetrics` -- including the whole
``extra`` dict -- with values recorded before the chain models shared
one solve-and-measure base (:class:`repro.models.chain.ChainModel`).
Floats are stored as ``float.hex`` strings, so a pin holds to the last
bit: any change in how a model builds its chain, solves it or extracts
its metrics shows up here, not only beyond a tolerance.

To re-record after an intended numerical change, print
``{name: encode(make()) for name, make in CASES.items()}`` and replace
``PINNED``.
"""

import dataclasses

import numpy as np
import pytest

from repro.dists import HyperExponential
from repro.models import (
    Figure4Model,
    RoundRobin,
    ShortestQueue,
    TagsBreakdown,
    TagsExponential,
    TagsHyperExponential,
    TagsMultiNode,
    TagsPepa,
)
from repro.models.bursty import MMPP2, ShortestQueueMMPP, TagsMMPP
from repro.models.tags_hyper import TagsH2Parameters
from repro.models.tags_pepa import TagsParameters
from repro.sweep import structure_cache
from tests.models._pepa_oracle import tags_h2_pepa_metrics, tags_pepa_metrics

SMALL = dict(lam=5.0, mu=10.0, t=20.0, n=3, K1=4, K2=4)
H2 = dict(lam=11.0, alpha=0.9, mu1=19.0, mu2=1.9, t=20.0, n=2, K1=4, K2=4)
H2_SERVICE = HyperExponential.h2(0.9, 19.0, 1.9)
BURSTS = MMPP2(9.0, 2.0, 0.5, 1.0)

CASES = {
    "tags_exp": lambda: TagsExponential(**SMALL).metrics(),
    "tags_exp_ticking": lambda: TagsExponential(
        tick_during_residual=True, mu2_service=8.0, t2=15.0, **SMALL
    ).metrics(),
    # a callable opts out of the structure cache: plain BFS build
    "tags_exp_dynamic": lambda: TagsExponential(
        t_of_q1=lambda q: 10.0 + 5.0 * q, **SMALL
    ).metrics(),
    "tags_exp_resume": lambda: TagsExponential(
        restart_work=False, **SMALL
    ).metrics(),
    "tags_h2": lambda: TagsHyperExponential(**H2).metrics(),
    "tags_3node": lambda: TagsMultiNode(
        lam=5.0, mu=10.0, timeouts=(30.0, 20.0), n=2, capacities=(2, 2, 2)
    ).metrics(),
    "tags_mmpp": lambda: TagsMMPP(
        arrivals=BURSTS, mu=10.0, t=20.0, n=2, K1=3, K2=3
    ).metrics(),
    # rate1 = 0 never loses an arrival in the off phase
    "tags_ipp": lambda: TagsMMPP(
        arrivals=MMPP2(12.0, 0.0, 0.5, 1.0), mu=10.0, t=20.0, n=2, K1=3, K2=3
    ).metrics(),
    "jsq_mmpp": lambda: ShortestQueueMMPP(arrivals=BURSTS, K=4).metrics(),
    "jsq_exp": lambda: ShortestQueue(lam=12.0, service=10.0, K=4).metrics(),
    "jsq_h2": lambda: ShortestQueue(lam=12.0, service=H2_SERVICE, K=4).metrics(),
    "rr_exp": lambda: RoundRobin(lam=12.0, service=10.0, K=4).metrics(),
    "rr_h2": lambda: RoundRobin(lam=12.0, service=H2_SERVICE, K=4).metrics(),
    "tags_pepa": lambda: TagsPepa(**SMALL).metrics(),
    "tags_pepa_ticking": lambda: TagsPepa(
        tick_during_residual=True, **SMALL
    ).metrics(),
    "breakdown": lambda: TagsBreakdown(fail=0.02, repair=0.1, **SMALL).metrics(),
    # service2 / timeout never fire: their throughputs read as 0
    "breakdown_down": lambda: TagsBreakdown(
        permanently_down=True, **SMALL
    ).metrics(),
    "figure4": lambda: Figure4Model(
        lam=5.0, mu=10.0, t=40.0, n=2, K1=3, K2=3
    ).metrics(),
    "oracle_pepa": lambda: tags_pepa_metrics(TagsParameters(**SMALL)),
    "oracle_h2_pepa": lambda: tags_h2_pepa_metrics(TagsH2Parameters(**H2)),
}


def _encode_value(value):
    if isinstance(value, (tuple, list)):
        return [_encode_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode_value(v) for k, v in value.items()}
    if isinstance(value, (bool, int, np.integer)):
        return int(value)
    return float(value).hex()


def encode(metrics) -> dict:
    """Every ``QueueMetrics`` field, floats as ``float.hex`` strings."""
    return {
        f.name: _encode_value(getattr(metrics, f.name))
        for f in dataclasses.fields(metrics)
    }


@pytest.fixture(autouse=True)
def fresh_cache():
    structure_cache().clear()
    yield
    structure_cache().clear()


@pytest.mark.parametrize("name", sorted(CASES))
def test_metrics_bit_identical(name):
    assert encode(CASES[name]()) == PINNED[name]


def test_every_case_pinned():
    assert set(CASES) == set(PINNED)


# recorded before the ChainModel refactor
PINNED = {   'breakdown': {   'extra': {   'availability': '0x1.aaaaaaaaaaaaep-1',
                                  'n_states': 442,
                                  'service1_throughput': '0x1.dbf2b40fc2c3ep+1',
                                  'service2_throughput': '0x1.39d7112e98cacp+0',
                                  'timeout_throughput': '0x1.3ab54deeb2316p+0'},
                     'loss_per_node': [   '0x1.aca93e3908dd0p-5',
                                          '0x1.bc798032cd400p-9'],
                     'loss_rate': '0x1.c870d63c35b00p-5',
                     'mean_jobs': '0x1.08e2ea4289085p+0',
                     'mean_jobs_per_node': [   '0x1.19af46394b887p-1',
                                               '0x1.f02d1c978d105p-2'],
                     'offered_load': '0x1.4000000000000p+2',
                     'response_time': '0x1.ac982377e9cd8p-3',
                     'throughput': '0x1.3c6f1e538794ap+2',
                     'utilisation': []},
    'breakdown_down': {   'extra': {   'availability': '0x0.0p+0',
                                       'n_states': 13,
                                       'service1_throughput': '0x1.35ad6b5ad6b5ap+2',
                                       'service2_throughput': '0x0.0p+0',
                                       'timeout_throughput': '0x0.0p+0'},
                          'loss_per_node': [   '0x1.4a5294a5294a6p-3',
                                               '0x0.0p+0'],
                          'loss_rate': '0x1.4a5294a5294c0p-3',
                          'mean_jobs': '0x1.ad6b5ad6b5ad7p-1',
                          'mean_jobs_per_node': [   '0x1.ad6b5ad6b5ad7p-1',
                                                    '0x0.0p+0'],
                          'offered_load': '0x1.4000000000000p+2',
                          'response_time': '0x1.62fc962fc9631p-3',
                          'throughput': '0x1.35ad6b5ad6b5ap+2',
                          'utilisation': []},
    'figure4': {   'extra': {   'accepted_rate': '0x1.3ec5b9d35db88p+2',
                                'n_states': 112,
                                'timeout_throughput': '0x1.8ffc077222514p+1'},
                   'loss_per_node': [],
                   'loss_rate': '0x1.3a462ca247a00p-6',
                   'mean_jobs': '0x1.a009d48e97080p-1',
                   'mean_jobs_per_node': [   '0x1.bff24d5668d85p-3',
                                             '0x1.300d4138fcd1fp-1'],
                   'offered_load': '0x1.4000000000000p+2',
                   'response_time': '0x1.4e1ccc5f83da2p-3',
                   'throughput': '0x1.3ec5b9d35db86p+2',
                   'utilisation': []},
    'jsq_exp': {   'extra': {'n_states': 25},
                   'loss_per_node': ['0x1.d36576dd23ad1p-4'],
                   'loss_rate': '0x1.d36576dd23b00p-4',
                   'mean_jobs': '0x1.e525e8aaa1a44p+0',
                   'mean_jobs_per_node': [   '0x1.e525e8aaa1a44p-1',
                                             '0x1.e525e8aaa1a45p-1'],
                   'offered_load': '0x1.8000000000000p+3',
                   'response_time': '0x1.4689837ab5543p-3',
                   'throughput': '0x1.7c59351245b8ap+3',
                   'utilisation': []},
    'jsq_h2': {   'extra': {'n_states': 81},
                  'loss_per_node': ['0x1.361d7c2750622p-1'],
                  'loss_rate': '0x1.361d7c2750620p-1',
                  'mean_jobs': '0x1.24da67312c364p+1',
                  'mean_jobs_per_node': [   '0x1.24da67312c364p+0',
                                            '0x1.24da67312c364p+0'],
                  'offered_load': '0x1.8000000000000p+3',
                  'response_time': '0x1.9b3a3283ab028p-3',
                  'throughput': '0x1.6c9e283d8af9ep+3',
                  'utilisation': []},
    'jsq_mmpp': {   'extra': {   'burstiness': '0x1.5999999999999p+0',
                                 'n_states': 50},
                    'loss_per_node': ['0x1.b7c6cd61ed335p-8'],
                    'loss_rate': '0x1.b7c6cd61edc00p-8',
                    'mean_jobs': '0x1.b2093012e52f6p-1',
                    'mean_jobs_per_node': [   '0x1.b2093012e52f6p-2',
                                              '0x1.b2093012e52f7p-2'],
                    'offered_load': '0x1.aaaaaaaaaaaabp+2',
                    'response_time': '0x1.04af160c0ac15p-3',
                    'throughput': '0x1.aa3cb8f7522f4p+2',
                    'utilisation': []},
    'oracle_h2_pepa': {   'extra': {   'alpha_prime': '0x1.7a983f6f425c0p-1',
                                       'n_states': 289,
                                       'timeout_throughput': '0x1.b732c4aa80646p+1'},
                          'loss_per_node': [   '0x1.1f0b11c4695efp-2',
                                               '0x1.5136545d36a84p-1'],
                          'loss_rate': '0x1.e0bbdd3f6b580p-1',
                          'mean_jobs': '0x1.5303d2519b148p+1',
                          'mean_jobs_per_node': [   '0x1.8f61a042718a1p-1',
                                                    '0x1.de56d481fd63fp+0'],
                          'offered_load': '0x1.6000000000000p+3',
                          'response_time': '0x1.0d90d7cb88fd8p-2',
                          'throughput': '0x1.41f4422c094a8p+3',
                          'utilisation': []},
    'oracle_pepa': {   'extra': {   'n_states': 221,
                                    'service1_throughput': '0x1.bf91049ba8263p+1',
                                    'service2_throughput': '0x1.77dcaf3059114p+0',
                                    'timeout_throughput': '0x1.78e5e8eede70ep+0'},
                       'loss_per_node': [   '0x1.fe03767450aadp-6',
                                            '0x1.0939be855fa00p-8'],
                       'loss_rate': '0x1.2028f30ad4500p-5',
                       'mean_jobs': '0x1.f46a34d6bdc61p-1',
                       'mean_jobs_per_node': [   '0x1.f93049d9da7a3p-2',
                                                 '0x1.efa41fd3a111fp-2'],
                       'offered_load': '0x1.4000000000000p+2',
                       'response_time': '0x1.932b122ee8b3fp-3',
                       'throughput': '0x1.3dbfae19ea576p+2',
                       'utilisation': []},
    'rr_exp': {   'extra': {'n_states': 50},
                  'loss_per_node': ['0x1.42c1f1180d9f0p-2'],
                  'loss_rate': '0x1.42c1f1180da00p-2',
                  'mean_jobs': '0x1.0165bc7198646p+1',
                  'mean_jobs_per_node': [   '0x1.0165bc7198646p+0',
                                            '0x1.0165bc7198647p+0'],
                  'offered_load': '0x1.8000000000000p+3',
                  'response_time': '0x1.607441e49484fp-3',
                  'throughput': '0x1.75e9f0773f930p+3',
                  'utilisation': []},
    'rr_h2': {   'extra': {'n_states': 162},
                 'loss_per_node': ['0x1.762c9642f9d44p+0'],
                 'loss_rate': '0x1.762c9642f9d38p+0',
                 'mean_jobs': '0x1.27f2bd80fb012p+1',
                 'mean_jobs_per_node': [   '0x1.27f2bd80fb013p+0',
                                           '0x1.27f2bd80fb012p+0'],
                 'offered_load': '0x1.8000000000000p+3',
                 'response_time': '0x1.c153823257646p-3',
                 'throughput': '0x1.513a6d37a0c59p+3',
                 'utilisation': []},
    'tags_3node': {   'extra': {   'arrival_loss': '0x1.4c8ac01258de5p-3',
                                   'n_states': 495},
                      'loss_per_node': [],
                      'loss_rate': '0x1.92bce22c9a870p-2',
                      'mean_jobs': '0x1.185af09f7214cp+0',
                      'mean_jobs_per_node': [   '0x1.f3f5ae02dde2ap-3',
                                                '0x1.e8840267461f0p-2',
                                                '0x1.7eece9151342ep-2'],
                      'offered_load': '0x1.4000000000000p+2',
                      'response_time': '0x1.e6dd73d45b16dp-3',
                      'throughput': '0x1.26d431dd36579p+2',
                      'utilisation': []},
    'tags_exp': {   'extra': {   'n_states': 221,
                                 'service1_throughput': '0x1.bf91049ba8262p+1',
                                 'service2_throughput': '0x1.77dcaf3059112p+0',
                                 'timeout_throughput': '0x1.78e5e8eede710p+0'},
                    'loss_per_node': [   '0x1.fe03767450aabp-6',
                                         '0x1.0939be855fe00p-8'],
                    'loss_rate': '0x1.2028f30ad4500p-5',
                    'mean_jobs': '0x1.f46a34d6bdc60p-1',
                    'mean_jobs_per_node': [   '0x1.f93049d9da7a3p-2',
                                              '0x1.efa41fd3a111dp-2'],
                    'offered_load': '0x1.4000000000000p+2',
                    'response_time': '0x1.932b122ee8b3ep-3',
                    'throughput': '0x1.3dbfae19ea576p+2',
                    'utilisation': []},
    'tags_exp_dynamic': {   'extra': {   'n_states': 221,
                                         'service1_throughput': '0x1.db8f9474da647p+1',
                                         'service2_throughput': '0x1.41d528cf56549p+0',
                                         'timeout_throughput': '0x1.42c2cf2f2512ap+0'},
                            'loss_per_node': [   '0x1.8781f9c989254p-6',
                                                 '0x1.db4cbf9d7c200p-9'],
                            'loss_rate': '0x1.c2eb91bd38a00p-6',
                            'mean_jobs': '0x1.d996448f883a4p-1',
                            'mean_jobs_per_node': [   '0x1.089808bff73e1p-1',
                                                      '0x1.a1fc779f21f87p-2'],
                            'offered_load': '0x1.4000000000000p+2',
                            'response_time': '0x1.7cf771aab1161p-3',
                            'throughput': '0x1.3e3d146e42c76p+2',
                            'utilisation': []},
    'tags_exp_resume': {   'extra': {   'n_states': 65,
                                        'service1_throughput': '0x1.bf91049ba8262p+1',
                                        'service2_throughput': '0x1.78d3fa8a61612p+0',
                                        'timeout_throughput': '0x1.78e5e8eede710p+0'},
                           'loss_per_node': [   '0x1.fe03767450aafp-6',
                                                '0x1.1ee647d0fe000p-12'],
                           'loss_rate': '0x1.013f87c9ca500p-5',
                           'mean_jobs': '0x1.522c2ae94dce3p-1',
                           'mean_jobs_per_node': [   '0x1.f93049d9da7a5p-2',
                                                     '0x1.565017f182443p-3'],
                           'offered_load': '0x1.4000000000000p+2',
                           'response_time': '0x1.103f745a5ee98p-3',
                           'throughput': '0x1.3dfd80f06c6b6p+2',
                           'utilisation': []},
    'tags_exp_ticking': {   'extra': {   'n_states': 351,
                                         'service1_throughput': '0x1.bf91049ba8262p+1',
                                         'service2_throughput': '0x1.777d5c302ccc4p+0',
                                         'timeout_throughput': '0x1.78e5e8eede70fp+0'},
                            'loss_per_node': [   '0x1.fe03767450ab0p-6',
                                                 '0x1.688cbeb1a4b00p-8'],
                            'loss_rate': '0x1.2c1353105cf00p-5',
                            'mean_jobs': '0x1.fd5efb11028d4p-1',
                            'mean_jobs_per_node': [   '0x1.f93049d9da7a4p-2',
                                                      '0x1.00c6d62415502p-1'],
                            'offered_load': '0x1.4000000000000p+2',
                            'response_time': '0x1.9a8112d895b6fp-3',
                            'throughput': '0x1.3da7d959df462p+2',
                            'utilisation': []},
    'tags_h2': {   'extra': {   'n_states': 289,
                                'service1_throughput': '0x1.d275ec8e7937ep+2',
                                'service2_throughput': '0x1.62e52f9332ba4p+1',
                                'timeout_throughput': '0x1.b732c4aa80646p+1'},
                   'loss_per_node': [   '0x1.1f0b11c4695efp-2',
                                        '0x1.5136545d36a88p-1'],
                   'loss_rate': '0x1.e0bbdd3f6b580p-1',
                   'mean_jobs': '0x1.5303d2519b147p+1',
                   'mean_jobs_per_node': [   '0x1.8f61a042718a2p-1',
                                             '0x1.de56d481fd63dp+0'],
                   'offered_load': '0x1.6000000000000p+3',
                   'response_time': '0x1.0d90d7cb88fd7p-2',
                   'throughput': '0x1.41f4422c094a8p+3',
                   'utilisation': []},
    'tags_ipp': {   'extra': {   'burstiness': '0x1.8000000000000p+0',
                                 'n_states': 140},
                    'loss_per_node': [   '0x1.9a60e132e6be1p-1',
                                         '0x1.bfb886418c978p-2'],
                    'loss_rate': '0x1.3d1e9229d684cp+0',
                    'mean_jobs': '0x1.a3aa2d776ae20p+0',
                    'mean_jobs_per_node': [   '0x1.53af20cc87e2ap-1',
                                              '0x1.f3a53a224de15p-1'],
                    'offered_load': '0x1.0000000000000p+3',
                    'response_time': '0x1.f08d7d887d072p-3',
                    'throughput': '0x1.b0b85b758a5edp+2',
                    'utilisation': []},
    'tags_mmpp': {   'extra': {   'burstiness': '0x1.5999999999999p+0',
                                  'n_states': 140},
                     'loss_per_node': [   '0x1.41187667633c9p-2',
                                          '0x1.c1c2e49ea25b0p-3'],
                     'loss_rate': '0x1.10fcf45b5a360p-1',
                     'mean_jobs': '0x1.577bc964b6b56p+0',
                     'mean_jobs_per_node': [   '0x1.08910c8b8b9e8p-1',
                                               '0x1.a666863de1cc3p-1'],
                     'offered_load': '0x1.aaaaaaaaaaaabp+2',
                     'response_time': '0x1.c002c3f6fe989p-3',
                     'throughput': '0x1.888b0c1f3f63fp+2',
                     'utilisation': []},
    'tags_pepa': {   'extra': {   'n_states': 221,
                                  'service1_throughput': '0x1.bf91049ba8263p+1',
                                  'service2_throughput': '0x1.77dcaf3059114p+0',
                                  'timeout_throughput': '0x1.78e5e8eede70ep+0'},
                     'loss_per_node': [   '0x1.fe03767450aadp-6',
                                          '0x1.0939be855fa00p-8'],
                     'loss_rate': '0x1.2028f30ad4500p-5',
                     'mean_jobs': '0x1.f46a34d6bdc61p-1',
                     'mean_jobs_per_node': [   '0x1.f93049d9da7a3p-2',
                                               '0x1.efa41fd3a111fp-2'],
                     'offered_load': '0x1.4000000000000p+2',
                     'response_time': '0x1.932b122ee8b3fp-3',
                     'throughput': '0x1.3dbfae19ea576p+2',
                     'utilisation': []},
    'tags_pepa_ticking': {   'extra': {   'n_states': 351,
                                          'service1_throughput': '0x1.bf91049ba8264p+1',
                                          'service2_throughput': '0x1.78805bf414e0ap+0',
                                          'timeout_throughput': '0x1.78e5e8eede711p+0'},
                             'loss_per_node': [   '0x1.fe03767450ab0p-6',
                                                  '0x1.9633eb2641c00p-10'],
                             'loss_rate': '0x1.0bb35a935a600p-5',
                             'mean_jobs': '0x1.b19b658e61514p-1',
                             'mean_jobs_per_node': [   '0x1.f93049d9da7a5p-2',
                                                       '0x1.6a068142e8284p-2'],
                             'offered_load': '0x1.4000000000000p+2',
                             'response_time': '0x1.5d2aeb7886864p-3',
                             'throughput': '0x1.3de8994ad94b4p+2',
                             'utilisation': []}}
