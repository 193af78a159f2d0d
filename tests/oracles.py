"""Straight-line numpy oracles for the model equations.

Everything here is written as one unfused expression per formula, using only
math/numpy calls, so it exercises none of the package's tape or manifold
code.  Tests compare package outputs against these to 1e-10.
"""

import math

import numpy as np

SHELL = 1.0 - 1e-5


def clip(v):
    n = np.linalg.norm(v)
    return v * (SHELL / n) if n > SHELL else v


def o_mobius_add(a, b):
    ab = float(np.dot(a, b))
    a2 = float(np.dot(a, a))
    b2 = float(np.dot(b, b))
    out = ((1 + 2 * ab + b2) * a + (1 - a2) * b) / (1 + 2 * ab + a2 * b2)
    return clip(out)


def o_scalar_mul(alpha, b):
    n = np.linalg.norm(b)
    if n == 0.0:
        return np.zeros_like(b)
    return clip(math.tanh(alpha * math.atanh(n)) * b / n)


def o_matvec(m, a):
    if np.linalg.norm(a) == 0.0:
        return np.zeros(m.shape[0])
    ma = m @ a
    man = np.linalg.norm(ma)
    if man == 0.0:
        return np.zeros(m.shape[0])
    an = np.linalg.norm(a)
    return clip(math.tanh(man / an * math.atanh(an)) * ma / man)


def o_exp0(v):
    n = np.linalg.norm(v)
    if n == 0.0:
        return np.zeros_like(v)
    return clip(math.tanh(n) * v / n)


def o_log0(a):
    n = np.linalg.norm(a)
    if n == 0.0:
        return np.zeros_like(a)
    return math.atanh(n) * a / n


def o_dist(p, q):
    num = 2 * float(np.dot(p - q, p - q))
    den = (1 - float(np.dot(p, p))) * (1 - float(np.dot(q, q)))
    return math.acosh(1 + num / den)


def o_leaky(x, slope=0.2):
    return np.where(x > 0, x, slope * x)


def o_time(w_t, t):
    if t == 0.0:
        return np.zeros_like(w_t)
    wn = np.linalg.norm(w_t)
    return clip(math.tanh(wn * math.atanh(t)) * w_t / wn)


def o_nodes(g):
    """A session graph's nodes: its distinct items, first appearance first."""
    nodes = []
    for item in g.items:
        if item not in nodes:
            nodes.append(item)
    return nodes


def o_transitions(g):
    """(src node, dst node, interval) of each consecutive click pair, in
    click order, repeats included."""
    nodes = o_nodes(g)
    return [(nodes.index(a), nodes.index(b), iv)
            for a, b, iv in zip(g.items, g.items[1:], g.intervals)]


def o_last(g):
    """The node of a session graph's final event."""
    return o_nodes(g).index(g.items[-1])


def in_neigh(g, i):
    """Node i's predecessors with the smallest interval of each pair, and
    itself at 0 unless a self-loop's smallest interval replaces it."""
    found = {}
    for s, d, iv in o_transitions(g):
        if d == i:
            found[s] = min(iv, found.get(s, iv))
    found.setdefault(i, 0.0)
    return sorted(found.items())


def o_attention_weights(state, g, i, sign=1.0):
    pairs = in_neigh(g, i)
    d = np.array([o_dist(state[i], state[j]) for j, _ in pairs])
    e = np.exp(sign * d)
    return pairs, e / e.sum()


def o_layer(state, g, w_t, sign=1.0, slope=0.2):
    out = []
    for i in range(len(state)):
        pairs, w = o_attention_weights(state, g, i, sign)
        acc = np.zeros_like(state[0])
        for (j, iv), wj in zip(pairs, w):
            joint = o_mobius_add(state[j], o_time(w_t, iv))
            acc = acc + o_log0(o_scalar_mul(wj, joint))
        out.append(o_exp0(o_leaky(acc, slope)))
    return out


def o_soft_attention(state, g, w2, w3, x_att, c_bias, slope=0.2):
    p = o_last(g)
    acc = np.zeros_like(state[0])
    for q in range(len(state)):
        inner = o_mobius_add(
            o_mobius_add(o_matvec(w2, state[p]), o_matvec(w3, state[q])), c_bias
        )
        act = o_exp0(o_leaky(o_log0(inner), slope))
        beta = float(o_matvec(x_att.reshape(1, -1), act)[0])
        acc = acc + o_log0(o_scalar_mul(beta, state[q]))
    return o_exp0(o_leaky(acc, slope))


def o_session_future(h_s, w_t, t, slope=0.2):
    return o_exp0(o_leaky(o_log0(h_s) * (1.0 + o_log0(o_time(w_t, t))), slope))


def o_item_future(h_s_fut, h_last, w_t, t, w4, w5):
    inner = o_mobius_add(
        o_mobius_add(o_matvec(w4, h_s_fut), o_matvec(w5, h_last)), o_time(w_t, t)
    )
    return o_exp0(np.tanh(o_log0(inner)))


def rand_ball(rng, d, max_norm):
    v = rng.normal(size=d)
    v /= np.linalg.norm(v)
    return v * rng.uniform(0.0, max_norm)
