package repro.core

/** The state accumulated by the Gather stage for one destination vertex.
  *
  * Mirrors the paper's rule for the `aggregate` sub-stage: if the reduce is
  * commutative + associative it can run anywhere in the pipeline (combiner /
  * partial-gather) and is represented as [[Pooled]] (SAGE's weighted sum) or
  * [[SoftmaxPool]] (GAT's attention, once the edge sees the receiver's
  * score); otherwise messages are *unioned* and the real reduce happens in
  * `apply_node` ([[Unioned]], the generic fallback and the Pregel
  * backend's partial-gather-disabled path). [[EmptyAgg]] stands for "no messages" and
  * is the identity of every merge.
  */
sealed trait Agg extends Serializable

/** No messages received (e.g. zero in-degree vertex). */
case object EmptyAgg extends Agg

/** Associative pool: element-wise message sum plus total edge weight.
  * SAGE's weighted-mean reduce is `sum / wsum`.
  */
final case class Pooled(sum: Array[Double], wsum: Double) extends Agg

/** Online-softmax normaliser (Milakov & Gimelshein 2018) of `heads`
  * attention heads, flat in `s`. Head `k`'s slot of width `d + 2` holds
  * `[Σ e^{ℓ−m}·v (d values), m, Σ e^{ℓ−m}]` over the logits `ℓ` and value
  * vectors `v` of the messages seen, `m` being the largest logit, so one
  * message `[v, ℓ, 1]` is a state by itself. A head's softmax-weighted mean
  * is its first `d` values over its last. Merging rescales both sides to
  * the larger max, so it is exact, never overflows and is the same in any
  * order up to rounding.
  */
final case class SoftmaxPool(heads: Int, s: Array[Double]) extends Agg

/** Multiset union of (message, edgeWeight) pairs — for non-associative
  * reduces. Merge copies the left list, so callers that add one message at
  * a time put it on the left.
  */
final case class Unioned(msgs: List[(Array[Double], Double)]) extends Agg

object Agg {
  /** Commutative + associative merge — the combiner the paper runs on the
    * sender side (partial-gather) and Pregel runs in `mergeMsg`.
    */
  def merge(a: Agg, b: Agg): Agg = (a, b) match {
    case (EmptyAgg, x) => x
    case (x, EmptyAgg) => x
    case (Pooled(s1, w1), Pooled(s2, w2)) =>
      require(s1.length == s2.length, "Pooled merge dim mismatch")
      val out = new Array[Double](s1.length)
      var i = 0
      while (i < out.length) { out(i) = s1(i) + s2(i); i += 1 }
      Pooled(out, w1 + w2)
    case (x: SoftmaxPool, y: SoftmaxPool) => mergeSoftmax(x, y)
    case (Unioned(m1), Unioned(m2)) => Unioned(m1 ::: m2)
    case (x, y) => throw new IllegalStateException(s"cannot merge ${x.getClass.getSimpleName} with ${y.getClass.getSimpleName}")
  }

  private def mergeSoftmax(x: SoftmaxPool, y: SoftmaxPool): SoftmaxPool = {
    require(x.heads == y.heads && x.s.length == y.s.length, "SoftmaxPool merge dim mismatch")
    val width = x.s.length / x.heads
    val d = width - 2
    val out = new Array[Double](x.s.length)
    var k = 0
    while (k < x.heads) {
      val o = k * width
      // only the side with the smaller max is rescaled: one exp per head
      val mx = x.s(o + d)
      val my = y.s(o + d)
      val cx = if (mx >= my) 1.0 else math.exp(mx - my)
      val cy = if (my >= mx) 1.0 else math.exp(my - mx)
      var j = o
      while (j < o + d) { out(j) = x.s(j) * cx + y.s(j) * cy; j += 1 }
      out(o + d) = math.max(mx, my)
      out(o + d + 1) = x.s(o + d + 1) * cx + y.s(o + d + 1) * cy
      k += 1
    }
    SoftmaxPool(x.heads, out)
  }

  /** Fold a union down to a pool (used when partial-gather is disabled for
    * an associative layer: the receiver does the whole reduce).
    */
  def poolOf(u: Unioned): Pooled = {
    val dim = u.msgs.head._1.length
    val sum = new Array[Double](dim)
    var w = 0.0
    u.msgs.foreach { case (m, mw) =>
      var i = 0
      while (i < dim) { sum(i) += m(i); i += 1 }
      w += mw
    }
    Pooled(sum, w)
  }
}
