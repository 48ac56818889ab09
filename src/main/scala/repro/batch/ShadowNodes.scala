package repro.batch

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** The paper's shadow-nodes strategy: an exact preprocessing transform for
  * vertices with large out-degree.
  *
  * A hub vertex `u` with out-degree d > threshold is duplicated into
  * `ceil(d / threshold)` mirrors; each mirror takes an even slice of the
  * out-edges and a *copy of all in-edges* (so every mirror computes exactly
  * `u`'s state each layer, and the union of the mirrors' out-messages equals
  * `u`'s). Mirror group 0 keeps the original id, so downstream consumers
  * simply drop the extra mirror ids after inference. Hubs and mirror ids
  * are laid out on the driver, from the [[hubs]] map.
  */
object ShadowNodes {

  /** `maxOutAfterSplit` is the max out-degree after the hub split but before
    * in-edge duplication (copies for edges *into* other hubs legitimately
    * inflate sender out-degrees afterwards — the overhead the paper
    * acknowledges); it is the quantity the threshold bounds.
    */
  final case class Shadowed(nodes: DataFrame, edges: DataFrame, nMirrors: Long, nHubs: Long, maxOutAfterSplit: Long)

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

  /** 0 for an empty edge table. */
  def maxOutDegree(edges: DataFrame): Long =
    edges.groupBy("src").count().agg(coalesce(max("count"), lit(0L))).head().getLong(0)

  def transform(spark: SparkSession, nodes: DataFrame, edges: DataFrame, thr: Long): Shadowed = {
    import spark.implicits._
    val hubDeg = hubs(edges, thr)
    if (hubDeg.isEmpty) return Shadowed(nodes, edges, 0L, 0L, maxOutDegree(edges))

    // contiguous mirror-id ranges per hub, in hub-id order, after max(id)
    val nGroups = hubDeg.toSeq.sorted.map { case (hub, deg) => hub -> ((deg - 1) / thr + 1) }
    val nMirrors = nGroups.map(_._2 - 1).sum
    val maxId = nodes.agg(max("id")).head().getLong(0)
    require(maxId <= Long.MaxValue - nMirrors,
      s"shadow-node mirror ids overflow: max vertex id $maxId + $nMirrors mirrors exceeds Long.MaxValue")
    val index = nGroups.zip(nGroups.scanLeft(maxId + 1) { case (base, (_, n)) => base + n - 1 })
      .map { case ((hub, n), base) => (hub, n, base) }
    val hubsIdx = index.toDF("hub", "nGroups", "mirrorBase")
    val hubIds = hubDeg.keySet
    // mirrors g = 1..nGroups-1 get fresh ids; g = 0 is the original id
    val mirrors = index.flatMap { case (hub, n, base) => (1L until n).map(g => hub -> (base + g - 1)) }

    // 1. out-edges of a hub are split evenly across its mirrors
    val grpW = Window.partitionBy("src").orderBy("dst", "w")
    val hubOut = edges.join(hubsIdx, edges("src") === hubsIdx("hub"))
      .withColumn("g", pmod(row_number().over(grpW).cast("long"), col("nGroups")))
      .select(
        when(col("g") === 0, col("src")).otherwise(col("mirrorBase") + (col("g") - 1)).as("src"),
        col("dst"), col("w"))
    val edges1 = edges.filter(!col("src").isInCollection(hubIds)).union(hubOut)
    val maxOutAfterSplit = maxOutDegree(edges1)

    // 2. in-edges of a hub are copied to every mirror (incl. the original)
    val allMirrorIds = (mirrors ++ hubIds.map(h => h -> h)).toDF("hub", "mirror")
    val hubIn = edges1.join(allMirrorIds, edges1("dst") === allMirrorIds("hub"))
      .select(col("src"), col("mirror").as("dst"), col("w"))
    val edges2 = edges1.filter(!col("dst").isInCollection(hubIds)).union(hubIn)

    // 3. mirror vertices copy the hub's full node row
    val mirrorIds = mirrors.toDF("hub", "mirror")
    val otherCols = nodes.columns.filter(_ != "id").toSeq
    val mirrorNodes = nodes.join(mirrorIds, nodes("id") === mirrorIds("hub"))
      .select(col("mirror").as("id") +: otherCols.map(nodes(_)): _*)

    Shadowed(nodes.union(mirrorNodes), edges2, nMirrors, hubDeg.size.toLong, maxOutAfterSplit)
  }
}
