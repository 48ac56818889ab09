package repro.perfbench

import scala.util.control.NonFatal

/** The per-op correctness check against the `LocalInference` reference. */
object Check {
  val Tol = 1e-8

  /** Why `rows` differ from `ref`, or None when every vertex is present once
    * and every coordinate is within [[Tol]]. NaN never passes.
    */
  def verify(rows: Array[(Long, Array[Double])], ref: Map[Long, Array[Double]]): Option[String] = {
    if (rows.length != ref.size) return Some(s"${rows.length} rows, expected ${ref.size}")
    val seen = scala.collection.mutable.HashSet.empty[Long]
    rows.iterator.map { case (id, h) =>
      ref.get(id) match {
        case None => Some(s"unexpected vertex $id")
        case Some(_) if !seen.add(id) => Some(s"vertex $id returned twice")
        case Some(r) if r.length != h.length => Some(s"vertex $id has dim ${h.length}, expected ${r.length}")
        case Some(r) =>
          // math.max propagates NaN, which then fails the <= test
          val diff = r.indices.foldLeft(0.0)((d, i) => math.max(d, math.abs(h(i) - r(i))))
          if (diff <= Tol) None else Some(s"vertex $id differs from the reference by $diff")
      }
    }.collectFirst { case Some(why) => why }
  }

  /** Runs one op and checks its output; a throw is a failure too. */
  def attempt(op: => Array[(Long, Array[Double])], ref: Map[Long, Array[Double]]): Option[String] =
    try verify(op, ref)
    catch { case NonFatal(e) => Some(s"threw $e") }
}

/** Attempted and failed op counts of one run. */
final class Tally {
  var attempted = 0
  var failed = 0
  def record(failure: Option[String]): Unit = {
    attempted += 1
    if (failure.isDefined) failed += 1
  }
}
