package repro.core

/** The state accumulated by the Gather stage for one destination vertex.
  *
  * Mirrors the paper's rule for the `aggregate` sub-stage: if the reduce is
  * commutative + associative it can run anywhere in the pipeline (combiner /
  * partial-gather) and is represented as [[Pooled]]; otherwise messages are
  * *unioned* and the real reduce happens in `apply_node` ([[Unioned]], the
  * GAT case). [[EmptyAgg]] stands for "no messages" and is the identity of
  * every merge.
  */
sealed trait Agg extends Serializable

/** No messages received (e.g. zero in-degree vertex). */
case object EmptyAgg extends Agg

/** Associative pool: element-wise message sum plus total edge weight.
  * SAGE's weighted-mean reduce is `sum / wsum`.
  */
final case class Pooled(sum: Array[Double], wsum: Double) extends Agg

/** Multiset union of (message, edgeWeight) pairs — for non-associative
  * reduces (attention). Merge copies the left list, so callers that add one
  * message at a time put it on the left.
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
    case (Unioned(m1), Unioned(m2)) => Unioned(m1 ::: m2)
    case (x, y) => throw new IllegalStateException(s"cannot merge ${x.getClass.getSimpleName} with ${y.getClass.getSimpleName}")
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
