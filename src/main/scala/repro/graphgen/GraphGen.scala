package repro.graphgen

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.LocalGraph
import repro.nn.DMat

/** Shape of a synthetic attributed graph.
  *
  * Labels are `id mod nClasses`; features are the sum of the centroids of a
  * node's active classes plus Gaussian noise, so a GNN that aggregates
  * homophilous neighbors genuinely improves over a per-node classifier —
  * which makes the Table II "all pipelines comparable" comparison
  * meaningful. All randomness is hash-seeded per node id, so generation is
  * deterministic and independent of partitioning.
  *
  * @param homophily probability an out-edge targets a same-class node
  * @param zipfOut   Pareto out-degrees (hub senders — broadcast/shadow-node study)
  * @param zipfIn    power-law in-degrees (hub receivers — partial-gather study)
  */
final case class GraphSpec(
    nNodes: Long,
    avgOutDeg: Double,
    featDim: Int,
    nClasses: Int,
    homophily: Double = 0.0,
    noise: Double = 1.0,
    zipfOut: Boolean = false,
    zipfIn: Boolean = false,
    paretoAlpha: Double = 2.0,
    zipfGamma: Double = 3.0,
    maxDeg: Int = 10000,
    multiLabel: Boolean = false,
    labelsPerNode: Int = 3,
    wMin: Double = 1.0,
    wMax: Double = 1.0,
    seed: Long = 7L
) {
  require(nNodes > 1 && nClasses >= 2 && featDim >= 1, "degenerate GraphSpec")
}

object GraphGen {

  /** splitmix64 — a well-mixed per-(seed,id) hash for seeding node RNGs. */
  def mix(seed: Long, id: Long): Long = {
    var z = seed ^ (id * 0x9E3779B97F4A7C15L) + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Class centroids, deterministic in (spec.seed, featDim, nClasses). */
  def centroids(spec: GraphSpec): Array[Array[Double]] =
    Array.tabulate(spec.nClasses) { c =>
      val rng = new java.util.Random(mix(spec.seed * 1000003L + 17, c.toLong))
      Array.fill(spec.featDim)(rng.nextGaussian())
    }

  def classOf(spec: GraphSpec, id: Long): Int = (id % spec.nClasses).toInt

  /** Active classes for a node: its base class plus, when multi-label,
    * extra classes drawn deterministically.
    */
  def activeClasses(spec: GraphSpec, id: Long): Seq[Int] =
    if (!spec.multiLabel) Seq(classOf(spec, id))
    else {
      val rng = new java.util.Random(mix(spec.seed + 5, id))
      val extra = (1 until spec.labelsPerNode)
        .map(_ => rng.nextInt(spec.nClasses))
        .filter(_ => rng.nextDouble() < 0.7)
      (classOf(spec, id) +: extra).distinct.sorted
    }

  def featuresOf(spec: GraphSpec, cents: Array[Array[Double]], id: Long): Seq[Double] = {
    val rng = new java.util.Random(mix(spec.seed + 11, id))
    val active = activeClasses(spec, id)
    val out = new Array[Double](spec.featDim)
    active.foreach { c =>
      var j = 0
      while (j < spec.featDim) { out(j) += cents(c)(j); j += 1 }
    }
    var j = 0
    while (j < spec.featDim) { out(j) += spec.noise * rng.nextGaussian(); j += 1 }
    out.toSeq
  }

  def outDegreeOf(spec: GraphSpec, id: Long): Int = {
    val rng = new java.util.Random(mix(spec.seed + 23, id))
    if (spec.zipfOut) {
      // Pareto with mean avgOutDeg: xm = avg*(alpha-1)/alpha, deg = xm * U^(-1/alpha)
      val xm = spec.avgOutDeg * (spec.paretoAlpha - 1.0) / spec.paretoAlpha
      val u = math.max(rng.nextDouble(), 1e-12)
      math.min(spec.maxDeg, math.max(1, math.ceil(xm * math.pow(u, -1.0 / spec.paretoAlpha)).toInt))
    } else {
      val base = spec.avgOutDeg.toInt
      val frac = spec.avgOutDeg - base
      math.max(1, base + (if (rng.nextDouble() < frac) 1 else 0))
    }
  }

  /** The (dst, weight) list of a node's out-edges, deterministic per id. */
  def outEdgesOf(spec: GraphSpec, id: Long): Seq[(Long, Double)] = {
    val deg = outDegreeOf(spec, id)
    val rng = new java.util.Random(mix(spec.seed + 31, id))
    val c = classOf(spec, id)
    val n = spec.nNodes
    (0 until deg).map { _ =>
      var dst: Long =
        if (spec.zipfIn) {
          // dst = floor(n * U^gamma): mass near 0 → hub receivers (power-law in-degree)
          (n * math.pow(rng.nextDouble(), spec.zipfGamma)).toLong.min(n - 1)
        } else if (rng.nextDouble() < spec.homophily) {
          // same-class target: ids with the same residue mod nClasses
          val slots = (n - 1 - c) / spec.nClasses + 1
          c + spec.nClasses * (rng.nextDouble() * slots).toLong.min(slots - 1)
        } else {
          (rng.nextDouble() * n).toLong.min(n - 1)
        }
      if (dst == id) dst = (dst + 1) % n
      val w = if (spec.wMin == spec.wMax) spec.wMin
              else spec.wMin + rng.nextDouble() * (spec.wMax - spec.wMin)
      (dst, w)
    }
  }

  /** The ids `0 until nNodes` in `partitions` partitions (default: the
    * session's default parallelism), each a contiguous range.
    */
  private def ids(spark: SparkSession, spec: GraphSpec, partitions: Option[Int]) =
    partitions.fold(spark.range(spec.nNodes))(spark.range(0, spec.nNodes, 1, _))

  /** Node table: id, feat ARRAY&lt;DOUBLE&gt;, label INT, labels ARRAY&lt;INT&gt;. */
  def nodes(spark: SparkSession, spec: GraphSpec, partitions: Option[Int] = None): DataFrame = {
    val cents = centroids(spec)
    val featUdf = udf((id: Long) => featuresOf(spec, cents, id))
    val labelUdf = udf((id: Long) => classOf(spec, id))
    val labelsUdf = udf((id: Long) => activeClasses(spec, id))
    ids(spark, spec, partitions).select(
      col("id"),
      featUdf(col("id")).as("feat"),
      labelUdf(col("id")).as("label"),
      labelsUdf(col("id")).as("labels"),
    )
  }

  /** Edge table: src, dst, w. Directed; no self-loops. A source's edges
    * sit in its id's partition.
    */
  def edges(spark: SparkSession, spec: GraphSpec, partitions: Option[Int] = None): DataFrame = {
    val edgeUdf = udf((id: Long) => outEdgesOf(spec, id))
    ids(spark, spec, partitions)
      .select(col("id").as("src"), explode(edgeUdf(col("id"))).as("e"))
      .select(col("src"), col("e._1").as("dst"), col("e._2").as("w"))
  }

  /** Collect a (small) distributed graph to the driver as a [[LocalGraph]]. */
  def toLocal(nodes: DataFrame, edges: DataFrame, nClasses: Int): LocalGraph = {
    val nRows = nodes.select("id", "feat", "label", "labels").collect().sortBy(_.getLong(0))
    val n = nRows.length
    val ids = nRows.map(_.getLong(0))
    val idx = ids.zipWithIndex.toMap
    val x = DMat.fromRows(nRows.toIndexedSeq.map(_.getSeq[Double](1).toArray))
    val y = DMat.zeros(n, nClasses)
    val yIdx = new Array[Int](n)
    nRows.zipWithIndex.foreach { case (r, i) =>
      yIdx(i) = r.getInt(2)
      r.getSeq[Int](3).foreach(c => y(i, c) = 1.0)
    }
    val eRows = edges.select("src", "dst", "w").collect()
    val src = eRows.map(r => idx(r.getLong(0)))
    val dst = eRows.map(r => idx(r.getLong(1)))
    val w = eRows.map(_.getDouble(2))
    LocalGraph(n, ids, src, dst, w, x, y, yIdx)
  }

  // ---- dataset presets (laptop-scale stand-ins for the paper's Table I) ----

  /** PPI stand-in: small, multi-label. */
  def ppiLite(scale: Double = 1.0, seed: Long = 101L): GraphSpec =
    GraphSpec(nNodes = math.max(64, (1400 * scale).toLong), avgOutDeg = 14, featDim = 32,
      nClasses = 20, homophily = 0.55, noise = 0.6, multiLabel = true, labelsPerNode = 3,
      seed = seed)

  /** OGB-Products stand-in: medium, single-label. */
  def productLite(scale: Double = 1.0, seed: Long = 102L): GraphSpec =
    GraphSpec(nNodes = math.max(64, (8000 * scale).toLong), avgOutDeg = 10, featDim = 48,
      nClasses = 16, homophily = 0.6, noise = 0.9, seed = seed)

  /** MAG240M stand-in: the large(st) real-world dataset, single-label. */
  def magLite(scale: Double = 1.0, seed: Long = 103L): GraphSpec =
    GraphSpec(nNodes = math.max(64, (20000 * scale).toLong), avgOutDeg = 10, featDim = 64,
      nClasses = 16, homophily = 0.5, noise = 1.0, seed = seed)

  /** Power-Law stand-in for the scalability / strategy studies.
    * `inSkew` puts the power law on in-degree (partial-gather study),
    * otherwise on out-degree (broadcast / shadow-node study).
    */
  def powerLaw(nNodes: Long, avgDeg: Double = 10, inSkew: Boolean = false,
               alpha: Double = 2.0, seed: Long = 104L): GraphSpec =
    GraphSpec(nNodes = nNodes, avgOutDeg = avgDeg, featDim = 16, nClasses = 2,
      homophily = 0.0, noise = 1.0, zipfOut = !inSkew, zipfIn = inSkew,
      paretoAlpha = alpha, seed = seed)
}
