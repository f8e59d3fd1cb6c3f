#!/usr/bin/env python3
"""Tour of a two-axis recurrence grid: evaluation in all four quadrants,
a tensor product, the cross-diagonal identity, and the generating function."""

from linrec import (
    Block,
    MultiSequence,
    MultiSpec,
    Recurrence,
    Sequence,
    ZZ,
    diagonal_identity_fib,
    gf,
    tensor_product,
    verify_gf,
)


def show(seq, n_count, k_count, origin=(0, 0)):
    # print a window bottom-up so (origin, k=0) sits in the lower left
    rows = []
    for k in range(k_count):
        rows.append([str(seq.term((origin[0] + n, origin[1] + k)).scalar())
                     for n in range(n_count)])
    widths = [max(len(r[i]) for r in rows) for i in range(n_count)]
    for row in reversed(rows):
        print(" ".join(v.rjust(w) for v, w in zip(row, widths)))


# A grid ruled by x[n+2,k] = x[n+1,k] + x[n,k] along the first axis and
# x[n,k+2] = x[n,k+1] + 3*x[n,k] along the second, seeded with a 2x2 block.
spec = MultiSpec(ZZ, [[1, 1], [1, 3]])
grid = MultiSequence(spec, Block(ZZ, (2, 2), [1, 1, 0, 1]))

print("the seeded grid, first quadrant:")
show(grid, 4, 4)

# The axis-1 rule ends in 1, a unit of Z, so that axis runs backward too.
# (Axis 2 ends in 3, so negative k would raise NotInvertibleError.)
print("\nsame grid, two columns to the left (axis-1 rule runs backward):")
show(grid, 6, 4, origin=(-2, 0))

# A tensor product multiplies a one-axis sequence onto each axis.
fib = Sequence(Recurrence(ZZ, [1, 1]), [0, 1])
ff = tensor_product(fib, fib)
print("\nFibonacci x Fibonacci (entry (n,k) is F(n)*F(k)):")
show(ff, 7, 5)

# When both rules are x -> x' + x'' the grid satisfies
#   x[n,k+3] - x[n+3,k] == 2*(x[n+2,k+1] - x[n+1,k+2])
# for every seed block; diagonal_identity_fib checks one position.
both_fib = MultiSequence(MultiSpec(ZZ, [[1, 1], [1, 1]]),
                         Block(ZZ, (2, 2), [3, 3, 2, 0]))
print("\ncross-diagonal identity on a Fibonacci-ruled grid:")
show(both_fib, 4, 4)
ok = all(diagonal_identity_fib(both_fib, n, k)
         for n in range(6) for k in range(6))
print("identity holds at every (n,k) < (6,6):", ok)

# The whole grid compresses into one rational function per axis variable.
print("\ngenerating function of the seeded grid:")
print("   ", gf(grid))
print("series check through degree (8,8):", verify_gf(grid, (8, 8)))

# A Sequence is the p=1 special case, a one-axis grid with integer indices.
lucas = Sequence(Recurrence(ZZ, [1, 1]), [2, 1])
print("\nLucas numbers as a one-axis grid:",
      [str(lucas.term(n).scalar()) for n in range(8)])
