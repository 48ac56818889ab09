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
  * simply drop the extra mirror ids after inference.
  */
object ShadowNodes {

  /** `maxOutAfterSplit` is the max out-degree after the hub split but before
    * in-edge duplication (copies for edges *into* other hubs legitimately
    * inflate sender out-degrees afterwards — the overhead the paper
    * acknowledges); it is the quantity the threshold bounds.
    */
  final case class Shadowed(nodes: DataFrame, edges: DataFrame, nMirrors: Long, nHubs: Long,
                            maxOutAfterSplit: Long, hubIndex: Option[DataFrame]) {
    /** Drops the cached hub index once `nodes` and `edges` are consumed. */
    def unpersist(): Unit = hubIndex.foreach(_.unpersist())
  }

  /** The paper's λ in the hub threshold. */
  val Lambda = 0.1

  /** Hub threshold heuristic from the paper: λ · |E| / workers. */
  def threshold(totalEdges: Long, numWorkers: Int): Long =
    math.max(1L, (Lambda * totalEdges / numWorkers).toLong)

  def transform(spark: SparkSession, nodes: DataFrame, edges: DataFrame, thr: Long): Shadowed = {
    val outDeg = edges.groupBy("src").agg(count(lit(1)).as("deg"))
    val hubs = outDeg.filter(col("deg") > thr)
      .withColumn("nGroups", ceil(col("deg") / lit(thr.toDouble)).cast("long"))
    val nHubs = hubs.count()
    if (nHubs == 0) {
      val mx = outDeg.agg(max("deg")).head().getLong(0)
      return Shadowed(nodes, edges, 0L, 0L, mx, None)
    }

    val base = nodes.agg(max("id")).head().getLong(0) + 1L
    // contiguous mirror-id ranges per hub: cumulative extra-mirror offsets
    val cumW = Window.orderBy("src").rowsBetween(Window.unboundedPreceding, -1)
    val hubsIdx = hubs
      .withColumn("mirrorBase", lit(base) + coalesce(sum(col("nGroups") - 1).over(cumW), lit(0L)))
      .select(col("src").as("hub"), col("nGroups"), col("mirrorBase"))
      .cache()

    // mirrors g = 1..nGroups-1 get fresh ids; g = 0 is the original id
    val mirrors = hubsIdx
      .select(col("hub"), col("mirrorBase"), explode(sequence(lit(1L), col("nGroups") - 1)).as("g"))
      .select(col("hub"), (col("mirrorBase") + col("g") - 1).as("mirror"))

    // 1. out-edges of a hub are split evenly across its mirrors
    val grpW = Window.partitionBy("src").orderBy("dst", "w")
    val hubOut = edges.join(hubsIdx, edges("src") === hubsIdx("hub"))
      .withColumn("g", pmod(row_number().over(grpW).cast("long"), col("nGroups")))
      .select(
        when(col("g") === 0, col("src")).otherwise(col("mirrorBase") + col("g") - 1).as("src"),
        col("dst"), col("w"))
    val nonHubOut = edges.join(hubsIdx, edges("src") === hubsIdx("hub"), "left_anti")
    val edges1 = nonHubOut.union(hubOut)
    val maxOutAfterSplit = edges1.groupBy("src").count().agg(max("count")).head().getLong(0)

    // 2. in-edges of a hub are copied to every mirror (incl. the original)
    val allMirrorIds = mirrors.union(hubsIdx.select(col("hub"), col("hub").as("mirror")))
    val hubIn = edges1.join(allMirrorIds, edges1("dst") === allMirrorIds("hub"))
      .select(col("src"), col("mirror").as("dst"), col("w"))
    val nonHubIn = edges1.join(hubsIdx, edges1("dst") === hubsIdx("hub"), "left_anti")
    val edges2 = nonHubIn.union(hubIn)

    // 3. mirror vertices copy the hub's full node row
    val otherCols = nodes.columns.filter(_ != "id").toSeq
    val mirrorNodes = nodes.join(mirrors, nodes("id") === mirrors("hub"))
      .select(col("mirror").as("id") +: otherCols.map(nodes(_)): _*)
    val nodes2 = nodes.union(mirrorNodes)

    val nMirrors = mirrors.count()
    Shadowed(nodes2, edges2, nMirrors, nHubs, maxOutAfterSplit, Some(hubsIdx))
  }
}
