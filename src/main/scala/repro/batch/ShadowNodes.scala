package repro.batch

import scala.collection.immutable.LongMap
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The paper's shadow-nodes strategy, exact, for vertices with large
  * out-degree. A hub `u` with out-degree d > threshold is split into
  * `ceil(d / threshold)` groups; each takes an even slice of the out-edges
  * and a *copy of all in-edges*, so every group computes exactly `u`'s state
  * each layer and the groups' out-messages together are `u`'s. Group 0 keeps
  * `u`'s id; the mirrors get ids past `max(id)`, laid out on the driver
  * ([[layout]]). The split runs in `BatchBackend`'s round-0 join ([[split]]).
  */
object ShadowNodes {

  /** Each hub's group ids, its own first, and the node table's largest id. */
  final case class Layout(groups: LongMap[Array[Long]], maxId: Long) {
    def mirrors: Long = groups.valuesIterator.map(_.length - 1L).sum
  }

  /** The paper's λ in the hub threshold. */
  val Lambda = 0.1

  /** Hub threshold heuristic from the paper: λ · |E| / workers. */
  def threshold(totalEdges: Long, numWorkers: Int): Long =
    math.max(1L, (Lambda * totalEdges / numWorkers).toLong)

  /** Hub id → out-degree for every vertex with more than `thr` out-edges. A
    * hub owns over `thr` edges, so there are fewer than |E| / thr hubs (about
    * workers / λ at the paper's threshold): few enough to collect.
    */
  def hubs(edges: DataFrame, thr: Long): Map[Long, Long] =
    edges.groupBy("src").agg(count(lit(1)).as("deg")).filter(col("deg") > thr)
      .collect().map(r => r.getLong(0) -> r.getLong(1)).toMap

  /** Contiguous mirror-id ranges per hub, in hub-id order, from `maxId + 1`. */
  def layout(hubDeg: Map[Long, Long], thr: Long, maxId: Long): Layout = {
    val nGroups = hubDeg.toSeq.sorted.map { case (hub, deg) => hub -> ((deg - 1) / thr + 1) }
    val nMirrors = nGroups.map(_._2 - 1).sum
    require(maxId <= Long.MaxValue - nMirrors,
      s"shadow-node mirror ids overflow: max vertex id $maxId + $nMirrors mirrors exceeds Long.MaxValue")
    val bases = nGroups.scanLeft(maxId + 1) { case (base, (_, n)) => base + n - 1 }
    val groups = nGroups.zip(bases).map { case ((hub, n), base) => hub -> (hub +: (1L until n).map(base + _ - 1)).toArray }
    Layout(LongMap(groups: _*), maxId)
  }

  /** Slice `g` of a `d`-edge list cut into `n` even slices, as `[from, until)`. */
  def slices(d: Int, n: Int): Iterator[(Int, Int)] =
    Iterator.tabulate(n)(g => ((g.toLong * d / n).toInt, ((g + 1L) * d / n).toInt))

  /** One vertex's records after the split, from its state row `h` and its
    * out-edge list. A hub becomes one record per group, each with the hub's
    * state and the group's slice of the list. Then, in every record, an
    * out-edge into a hub goes to each of its groups, and one to an id above
    * `maxId` is dropped: no node row has that id, and a mirror's must not
    * take its message. A row that needs neither comes back as it is.
    */
  def split(l: Layout, id: Long, h: Array[Double], dsts: Array[Long], ws: Array[Double])
      : Iterator[(Long, Array[Double], Array[Long], Array[Double])] = {
    // a hub has two groups or more, and an out-edge list
    val gs = l.groups.getOrElse(id, Array(id))
    if (gs.length == 1 && (dsts == null || dsts.forall(d => d <= l.maxId && !l.groups.contains(d))))
      Iterator.single((id, h, dsts, ws))
    else slices(dsts.length, gs.length).zip(gs.iterator).map { case ((from, until), g) =>
      val out = new EdgeList
      (from until until).foreach { i =>
        if (dsts(i) <= l.maxId) l.groups.get(dsts(i)) match {
          case Some(copies) => copies.foreach(out.add(_, ws(i)))
          case None         => out.add(dsts(i), ws(i))
        }
      }
      (g, h, out.ids, out.ws)
    }
  }
}
