"""From-scratch neural-network micro-framework (autograd on numpy).

Provides the minimum surface the paper's GCN needs: a reverse-mode autograd
tensor, dense and sparse (COO triples in, one CSR held) matmul,
linear/ReLU/dropout layers, weighted cross-entropy, and SGD/Adam optimisers.
"""

from repro.nn.tensor import Tensor, no_grad, spmm
from repro.nn.sparse import COOMatrix
from repro.nn.layers import Dropout, Linear, Module, Parameter, ReLU, Sequential
from repro.nn.functional import cross_entropy, log_softmax, one_hot, relu, softmax
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.init import kaiming_uniform, xavier_uniform, zeros
from repro.nn.schedule import CosineLR, StepLR

__all__ = [
    "Tensor",
    "no_grad",
    "spmm",
    "COOMatrix",
    "Dropout",
    "Linear",
    "Module",
    "Parameter",
    "ReLU",
    "Sequential",
    "cross_entropy",
    "log_softmax",
    "one_hot",
    "relu",
    "softmax",
    "SGD",
    "Adam",
    "Optimizer",
    "kaiming_uniform",
    "xavier_uniform",
    "zeros",
    "CosineLR",
    "StepLR",
]
