package repro.batch

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Encoder, Encoders, SparkSession}
import org.apache.spark.sql.catalyst.encoders.ExpressionEncoder
import org.apache.spark.sql.expressions.Aggregator
import org.apache.spark.sql.functions._
import repro.core._

/** InferTurbo on a batch-processing system (the paper's MapReduce/Spark
  * backend), expressed with the DataFrame API.
  *
  * One GNN layer is one round, and a round is one reduce keyed by the
  * receiving vertex:
  *   1. scatter: each vertex computes its payload once (`scatter_nbrs`
  *      content), and the edge table joins the payloads, so the out-edge
  *      info is re-sent every round as in the paper's stateless reduce;
  *   2. map: three kinds of [[RoundIn]] record meet at the receiver — its
  *      own state, each edge message `apply_edge(payload, w)` and each
  *      reference to a broadcast hub's payload. For a layer whose
  *      `apply_edge` reads the receiver (`LayerSig.readsDst`, GAT), the edge
  *      record carries the raw source payload instead and `apply_edge` runs
  *      in the reduce, where the receiver's state is;
  *   3. reduce: one [[RoundFold]] folds a receiver's records and runs
  *      `apply_node`. With **partial-gather** it is driven by a grouped
  *      aggregate, which Spark runs map-side first (the paper's combiner);
  *      without it, by `groupByKey` + `mapGroups`, so every record crosses
  *      the shuffle exactly once and nothing combines before the receiver
  *      (the paper's no-combiner baseline). A `readsDst` layer always takes
  *      the second driver: the map side has no receiver score to combine
  *      with, and shipping it there would cost one more exchange of every
  *      edge per round;
  *   4. the new node table is persisted to external storage (parquet spill)
  *      before the next round, mirroring the paper's MR dataflow where no
  *      state lives in memory across rounds.
  *
  * Strategies:
  *  - `partialGather`: combiner on/off (exact either way);
  *  - `broadcastHubs`: the paper's broadcast strategy — payloads of the
  *    [[ShadowNodes.hubs]] are shipped once per worker via a Spark broadcast
  *    variable, destroyed when the round is materialized; hub out-edges, split
  *    from the rest once, carry only the source id, and receivers look the
  *    payload up (the paper's identifier/lookup mechanism), so hub messages
  *    never cross the shuffle;
  *  - `shadowNodes`: the [[ShadowNodes]] mirror split, applied as
  *    preprocessing and undone on output.
  *
  * Edges whose source or destination has no node row are dropped, with or
  * without strategies. A vertex id that appears twice in the node table
  * fails the round with an `IllegalArgumentException` naming the id.
  */
object BatchBackend {

  final case class BatchOpts(
      partialGather: Boolean = true,
      broadcastHubs: Boolean = false,
      shadowNodes: Boolean = false,
      numWorkers: Int = 64,
      spillDir: Option[String] = None)

  /** Full-graph inference; returns DataFrame(id LONG, h ARRAY&lt;DOUBLE&gt;). */
  def run(spark: SparkSession, nodes: DataFrame, edges: DataFrame, model: GnnModel,
          opts: BatchOpts = BatchOpts()): DataFrame = {
    import spark.implicits._
    lazy val thr = ShadowNodes.threshold(edges.count(), opts.numWorkers)
    val (n0, e0) =
      if (opts.shadowNodes) { val s = ShadowNodes.transform(spark, nodes, edges, thr); (s.nodes, s.edges) }
      else (nodes, edges)
    val hubs: Set[Long] = if (opts.broadcastHubs) ShadowNodes.hubs(e0, thr).keySet else Set.empty

    val eCached = e0.select("src", "dst", "w").cache()
    val isHub = col("src").isInCollection(hubs)
    val (restEdges, hubEdges) =
      if (hubs.isEmpty) (eCached, None) else (eCached.filter(!isHub), Some(eCached.filter(isHub)))
    var cur = n0.select(col("id"), col("feat").as("h"))
    model.layers.zipWithIndex.foreach { case (layer, round) =>
      // the hubs' payloads alone (a hub with no node row has none)
      val hubPayloads = hubEdges.map(_ => spark.sparkContext.broadcast(
        cur.filter(col("id").isInCollection(hubs)).as[(Long, Array[Double])]
          .map { case (id, h) => (id, layer.scatterPayload(h)) }.collect().toMap))
      cur = materialize(spark, runRound(spark, cur, restEdges, hubEdges, hubPayloads, layer, opts), opts, round)
      hubPayloads.foreach(_.destroy())
    }
    // the last round's table is spilled or checkpointed, so no cache is needed
    eCached.unpersist()
    // drop shadow mirrors: only ids present in the original node table
    val result =
      if (opts.shadowNodes) cur.join(nodes.select("id"), Seq("id"))
      else cur
    result.select("id", "h")
  }

  private def runRound(spark: SparkSession, cur: DataFrame, edges: DataFrame, hubEdges: Option[DataFrame],
                       hubPayloads: Option[Broadcast[Map[Long, Array[Double]]]], layer: GasLayer,
                       opts: BatchOpts): DataFrame = {
    import spark.implicits._
    val states = cur.as[(Long, Array[Double])]
    val payload = states.map { case (id, h) => (id, layer.scatterPayload(h)) }.toDF("id", "p")

    val readsDst = layer.signature.readsDst
    val msgs = edges.join(payload, edges("src") === payload("id"))
      .select(edges("dst"), payload("p"), edges("w")).as[(Long, Array[Double], Double)]
      .map { case (dst, p, w) => RoundIn(dst, null, if (readsDst) p else layer.applyEdge(p, w), w, 0L) }
    // broadcast strategy: hub out-edges carry only (src, w) and receivers
    // look the payload up, so hub messages never cross the shuffle
    val hubRefs = hubEdges.map(_.as[(Long, Long, Double)]
      .map { case (src, dst, w) => RoundIn(dst, null, null, w, src) })
    val own = states.map { case (id, h) => RoundIn(id, h, null, 0.0, 0L) }
    val records = hubRefs.foldLeft(own.union(msgs))(_ union _)

    val fold = new RoundFold(layer, hubPayloads)
    val reduced =
      if (opts.partialGather && layer.partialGather && !readsDst)
        records.groupBy("key").agg(udaf(fold, Encoders.product[RoundIn])(records.columns.toSeq.map(col): _*).as("h"))
      else
        records.groupByKey(_.key)
          .mapGroups((key, rs) => (key, fold.finish(rs.foldLeft(fold.zero)(fold.reduce))))
          .toDF("key", "h")
    reduced.where(col("h").isNotNull).select(col("key").as("id"), col("h"))
  }

  /** Between rounds the MR backend keeps no state in memory: spill the node
    * table to parquet and read it back (external-storage dataflow). Without
    * a spill dir, localCheckpoint still cuts the lineage so rounds stay
    * independent.
    */
  private def materialize(spark: SparkSession, df: DataFrame, opts: BatchOpts, round: Int): DataFrame =
    opts.spillDir match {
      case Some(dir) =>
        val path = s"$dir/round_$round"
        df.write.mode("overwrite").parquet(path)
        // the known schema spares a job that would infer it from the files
        spark.read.schema(df.schema).parquet(path)
      case None =>
        df.localCheckpoint(true)
    }
}

/** One record of a round's reduce, keyed by the receiving vertex: its own
  * state (`h`), an edge message (`m`, `w`; the raw source payload for a
  * `readsDst` layer), or a reference to the payload of the broadcast hub
  * `src` over an edge of weight `w`.
  */
final case class RoundIn(key: Long, h: Array[Double], m: Array[Double], w: Double, src: Long)

/** A receiver's partial fold: its state (null until the state record
  * arrives, and `key` with it), the gathered messages and the hub references
  * still to resolve.
  */
final case class RoundBuf(key: Long, h: Array[Double], agg: Agg, hubs: List[(Long, Double)])

/** The reduce of one MR round. `reduce` and `merge` only gather, so Spark may
  * run them map-side (the combiner); `finish` resolves the hub references
  * from the broadcast payloads and runs `apply_node`. A new message is merged
  * on the left, so a [[Unioned]] list grows by prepending.
  *
  * For a `readsDst` layer the gathered messages are raw source payloads,
  * kept as a [[Unioned]] list; `finish` computes the receiver's payload and
  * runs `apply_edge` on each of them and on each hub payload.
  */
final class RoundFold(layer: GasLayer, hubPayloads: Option[Broadcast[Map[Long, Array[Double]]]])
    extends Aggregator[RoundIn, RoundBuf, Array[Double]] {

  private val readsDst = layer.signature.readsDst

  def zero: RoundBuf = RoundBuf(0L, null, EmptyAgg, Nil)

  def reduce(b: RoundBuf, r: RoundIn): RoundBuf =
    if (r.h != null) withState(b, r.key, r.h)
    else if (r.m != null) {
      val in = if (readsDst) Unioned((r.m, r.w) :: Nil) else layer.initAgg(r.m, r.w)
      b.copy(agg = Agg.merge(in, b.agg))
    }
    else b.copy(hubs = (r.src, r.w) :: b.hubs)

  def merge(b1: RoundBuf, b2: RoundBuf): RoundBuf = {
    val b = if (b2.h == null) b1 else withState(b1, b2.key, b2.h)
    b.copy(agg = Agg.merge(b2.agg, b1.agg), hubs = b2.hubs ::: b1.hubs)
  }

  private def withState(b: RoundBuf, key: Long, h: Array[Double]): RoundBuf = {
    require(b.h == null, s"duplicate vertex id $key in the node table")
    b.copy(key = key, h = h)
  }

  /** Null for a key with no state: messages to a missing vertex are dropped. */
  def finish(b: RoundBuf): Array[Double] =
    if (b.h == null) null
    else {
      val dst = if (readsDst) layer.scatterPayload(b.h) else null
      def message(p: Array[Double], w: Double): Agg =
        layer.initAgg(layer.applyEdge(if (readsDst) VecOps.concat(p, dst) else p, w), w)
      val gathered = b.agg match {
        case Unioned(raw) if readsDst => raw.foldLeft(EmptyAgg: Agg) { case (acc, (p, w)) => Agg.merge(message(p, w), acc) }
        case agg                      => agg
      }
      // a hub with no node row has no payload and sends nothing
      val agg = b.hubs.foldLeft(gathered) { case (acc, (src, w)) =>
        hubPayloads.flatMap(_.value.get(src)).fold(acc)(p => Agg.merge(message(p, w), acc))
      }
      layer.applyNode(b.h, agg)
    }

  def bufferEncoder: Encoder[RoundBuf] = Encoders.kryo[RoundBuf]
  def outputEncoder: Encoder[Array[Double]] = ExpressionEncoder[Array[Double]]()
}
