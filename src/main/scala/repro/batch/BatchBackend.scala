package repro.batch

import scala.collection.mutable
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._

/** InferTurbo on a batch-processing system (the paper's MapReduce/Spark
  * backend), expressed with the DataFrame API.
  *
  * A round reads and writes vertex records `(id, h, dsts, ws, hubSrcs,
  * hubWs)`: a vertex's state together with its out-edge list and, under the
  * broadcast strategy, its in-edges from hubs, the classic MapReduce graph
  * pattern in which the graph structure is passed along from mapper to
  * reducer on every iteration. One GNN layer is one round:
  *   1. join (round 0 only): each map task folds its edges into one piece
  *      of edge list per vertex ([[EdgeLists.pieces]], in-mapper folding),
  *      and the pieces meet the node table in one group per vertex (a
  *      reduce-side join), where they are concatenated. So each list crosses
  *      the shuffle once, in the only exchange in which edges travel apart
  *      from their vertex's record, and it runs once per run;
  *   2. map (`scatter_nbrs`): one `mapPartitions` over the vertex records
  *      computes each vertex's payload once and emits the vertex's own
  *      record, lists included, and one edge message `apply_edge(payload, w)`
  *      per out-edge: the two kinds of [[RoundIn]] record that meet at the
  *      receiver. For a layer whose `apply_edge` reads the receiver
  *      (`LayerSig.readsDst`, GAT), the edge record carries the raw source
  *      payload instead and `apply_edge` runs in the reduce, where the
  *      receiver's state is;
  *   3. reduce: one [[RoundFold]] folds a receiver's records, resolves its
  *      hub in-edges from the broadcast payloads, runs `apply_node` and
  *      hands the lists on with the new state, driven by `groupByKey` +
  *      `flatMapSortedGroups` for every layer: each group is sorted state
  *      first (value-to-key conversion, the secondary sort of Lin & Dyer
  *      2010, §3.4), in the sort the group-by runs anyway, so a `readsDst`
  *      receiver has its payload before any message reaches it and folds
  *      each message as it arrives. With **partial-gather** each map
  *      task first folds its own records per receiver in a hash map
  *      ([[RoundFold.combine]], in-mapper combining, the paper's combiner)
  *      and emits one record per receiver it saw: the state and lists, if
  *      the task holds them, with the combined aggregate encoded as one
  *      message. Without it every record crosses the shuffle exactly once
  *      and nothing combines before the receiver (the paper's no-combiner
  *      baseline). A `readsDst` layer never combines: the map side has no
  *      receiver score to combine with, and shipping it there would cost
  *      one more exchange of every edge per round;
  *   4. the new vertex records are persisted to external storage (parquet
  *      spill) before the next round, mirroring the paper's MR dataflow
  *      where no state lives in memory across rounds. The last round's
  *      records drop their lists, so the last spill and the output hold
  *      only `(id, h)`.
  *
  * The exchanges are Dataset shuffles, so `spark.sql.shuffle.partitions`
  * (two per core from `JobSession`) sets how many blocks each map task
  * writes, and adaptive execution coalesces the reduce side.
  *
  * Strategies:
  *  - `partialGather`: combiner on/off (exact either way);
  *  - `broadcastHubs`: the paper's broadcast strategy — payloads of the
  *    [[ShadowNodes.hubs]] are shipped once per worker via a Spark broadcast
  *    variable, destroyed when the round is materialized; hub out-edges are
  *    left out of the out-edge lists and kept, as source ids, on their
  *    receivers' records, which look the payload up (the paper's
  *    identifier/lookup mechanism). So no hub payload crosses a round's
  *    shuffle, and no hub edge crosses as a record of its own: each travels,
  *    as a source id and a weight, inside its receiver's vertex record, in
  *    every round's shuffle and every spill;
  *  - `shadowNodes`: the [[ShadowNodes]] mirror split, done in the round-0
  *    join ([[ShadowNodes.split]]), with no preprocessing pass; the output
  *    keeps the ids up to the node table's largest, dropping the mirrors.
  *
  * Edges whose source or destination has no node row are dropped, with or
  * without strategies. A vertex id that appears twice in the node table
  * fails the round with an `IllegalArgumentException` naming the id, a NaN
  * or infinite edge weight fails the run with one naming the edge, and
  * features not `model.inDim` wide with one naming the vertex
  * ([[GnnModel.input]]).
  */
object BatchBackend {

  /** Both hub strategies take their hubs from one [[ShadowNodes.hubs]] call
    * on the input edges. With `broadcastHubs` and `shadowNodes` both on,
    * shadow-nodes splits every hub and broadcast has none left.
    */
  final case class BatchOpts(
      partialGather: Boolean = true,
      broadcastHubs: Boolean = false,
      shadowNodes: Boolean = false,
      numWorkers: Int = 64,
      spillDir: Option[String] = None)

  /** A vertex record: state `h`, out-edge list (`dsts`, `ws`; both null for
    * a vertex without non-hub out-edges) and in-edges from broadcast hubs
    * (`hubSrcs`, `hubWs`; both null for a vertex without any, so always null
    * without the broadcast strategy).
    */
  private[batch] type VertexRow = (Long, Array[Double], Array[Long], Array[Double], Array[Long], Array[Double])

  /** Full-graph inference; returns DataFrame(id LONG, h ARRAY&lt;DOUBLE&gt;). */
  def run(spark: SparkSession, nodes: DataFrame, edges: DataFrame, model: GnnModel,
          opts: BatchOpts = BatchOpts()): DataFrame = {
    import spark.implicits._
    lazy val thr = ShadowNodes.threshold(edges.count(), opts.numWorkers)
    val hubDeg = if (opts.broadcastHubs || opts.shadowNodes) ShadowNodes.hubs(edges, thr) else Map.empty[Long, Long]
    val layout = if (opts.shadowNodes && hubDeg.nonEmpty)
      Some(ShadowNodes.layout(hubDeg, thr, nodes.agg(max("id")).head().getLong(0))) else None
    val hubs: Set[Long] = if (opts.shadowNodes) Set.empty else hubDeg.keySet

    val pieces = edges.select("src", "dst", "w").as[(Long, Long, Double)].mapPartitions(EdgeLists.pieces(_, hubs))
    var cur = nodes.select(col("id"), col("feat").as("h"))
    model.layers.zipWithIndex.foreach { case (layer, round) =>
      // the hubs' payloads alone (a hub with no node row has none), read
      // from the node table in round 0 so the join is not run twice
      val hubPayloads = if (hubs.isEmpty) None else Some(spark.sparkContext.broadcast(
        cur.filter(col("id").isInCollection(hubs)).select("id", "h").as[(Long, Array[Double])]
          .map { case (id, h) => (id, layer.scatterPayload(if (round == 0) model.input(id, h) else h)) }
          .collect().toMap))
      val rows = if (round == 0) withEdgeLists(spark, cur, pieces, model, layout) else cur.as[VertexRow]
      val last = round == model.layers.size - 1
      cur = materialize(spark, runRound(spark, rows, hubPayloads, layer, last, opts), opts, round)
      hubPayloads.foreach(_.destroy())
    }
    // drop the shadow mirrors, the only ids above the node table's
    layout.fold(cur)(l => cur.filter(col("id") <= l.maxId)).select("id", "h")
  }

  /** The vertex records of round 0: a reduce-side join, as in MapReduce,
    * where a vertex's state row and its edge-list pieces (any number of
    * them: one from each map task that held its edges, none if it has no
    * list) meet in one group, so each task sorts once where a sort-merge
    * join sorts both sides and holds two sort pages. The pieces are
    * concatenated into the vertex's lists; pieces whose vertex has no node
    * row meet no state and are dropped. Under shadow-nodes each vertex is
    * split here, as its state meets its lists.
    */
  private def withEdgeLists(spark: SparkSession, states: DataFrame, pieces: Dataset[VertexRow], model: GnnModel,
                            layout: Option[ShadowNodes.Layout]): Dataset[VertexRow] = {
    import spark.implicits._
    val noLists = Seq("dsts" -> "array<bigint>", "ws" -> "array<double>", "hubSrcs" -> "array<bigint>",
      "hubWs" -> "array<double>").map { case (c, t) => lit(null).cast(t).as(c) }
    states.select(col("id") +: col("h") +: noLists: _*)
      .union(pieces.toDF())
      .groupBy("id").as[Long, VertexRow]
      .flatMapGroups { (_, group) =>
        val lists = new EdgeLists
        val stateRows = mutable.ArrayBuffer.empty[VertexRow]
        group.foreach(r => if (r._2 != null) stateRows += r else lists.addPiece(r))
        stateRows.iterator.flatMap { st =>
          val row = lists.row(st._1, model.input(st._1, st._2))
          layout.fold(Iterator.single(row))(l => ShadowNodes.split(l, row._1, row._2, row._3, row._4)
            .map { case (id, h, dsts, ws) => (id, h, dsts, ws, row._5, row._6) })
        }
      }
  }

  private def runRound(spark: SparkSession, rows: Dataset[VertexRow],
                       hubPayloads: Option[Broadcast[Map[Long, Array[Double]]]], layer: GasLayer,
                       last: Boolean, opts: BatchOpts): DataFrame = {
    import spark.implicits._
    val readsDst = layer.signature.readsDst
    val fold = new RoundFold(layer, src => hubPayloads.flatMap(_.value.get(src)))
    // partial-gather: each map task folds its records per receiver first
    val combine: Iterator[RoundIn] => Iterator[RoundIn] =
      if (opts.partialGather && layer.partialGather && !readsDst) fold.combine(_) else identity
    // each vertex computes its payload once and sends it along its list;
    // its own record carries its lists on to the reduce, where the hub
    // in-edges are resolved (by the combiner, when there is one), except
    // that the last round needs no out-edge list after the map
    val sent = rows.mapPartitions(vs => combine(vs.flatMap { case (id, h, dsts, ws, hubSrcs, hubWs) =>
      val own = if (last) RoundIn(id, h, null, 0.0, null, null, hubSrcs, hubWs)
                else RoundIn(id, h, null, 0.0, dsts, ws, hubSrcs, hubWs)
      if (dsts == null) Iterator.single(own)
      else {
        val p = layer.scatterPayload(h)
        Iterator.single(own) ++ dsts.indices.iterator.map(i =>
          RoundIn(dsts(i), null, if (readsDst) p else layer.applyEdge(p, ws(i)), ws(i), null, null, null, null))
      }
    }))
    val out = sent
      .groupByKey(_.key)
      .flatMapSortedGroups(col("h").isNull)((_, rs) => fold.finish(rs.foldLeft(fold.zero)(fold.reduce)))
      .toDF()
    if (last) out.select("id", "h") else out
  }

  /** Between rounds the MR backend keeps no state in memory: spill the
    * vertex records to parquet and read them back (external-storage
    * dataflow). Without a spill dir, localCheckpoint still cuts the lineage
    * so rounds stay independent. The states are written without a parquet
    * dictionary: embeddings never repeat, so their dictionary encoder only
    * costs time before it falls back to plain; the lists keep theirs.
    */
  private def materialize(spark: SparkSession, df: DataFrame, opts: BatchOpts, round: Int): DataFrame =
    opts.spillDir match {
      case Some(dir) =>
        val path = s"$dir/round_$round"
        df.write.mode("overwrite").option("parquet.enable.dictionary#h.list.element", "false").parquet(path)
        // the known schema spares a job that would infer it from the files
        spark.read.schema(df.schema).parquet(path)
      case None =>
        df.localCheckpoint(true)
    }
}

/** One vertex's edge lists while they are built: its non-hub out-edges
  * (`out`: destinations and weights) and its in-edges from broadcast hubs
  * (`hubIn`: sources and weights).
  *
  * The lists are built by in-mapper folding ([[EdgeLists.pieces]], as
  * [[RoundFold.combine]] folds a round's messages) inside the round-0 join's
  * exchange, so each list crosses the shuffle once. Not with `collect_list`:
  * Spark's object hash aggregate falls back to sorting past 128 keys per task
  * and then holds two sort pages per task at once (16 MB each with a 3 GB
  * heap on 4 cores). The on-heap allocator keeps freed pages in a pool held
  * by weak references, which G1's young collections do not clear, so that
  * one burst kept twelve pages (192 MB) in the heap for the JVM's life. Not
  * with an RDD `combineByKey` either: it shuffled every list once on its own
  * and then again in the join, next to the state.
  */
final class EdgeLists {
  val out = new EdgeList
  val hubIn = new EdgeList

  /** Appends the lists of a piece: a vertex record whose state is null. */
  def addPiece(r: BatchBackend.VertexRow): Unit = {
    out.addAll(r._3, r._4)
    hubIn.addAll(r._5, r._6)
  }

  /** A vertex record of vertex `id` with state `h` and these lists. */
  def row(id: Long, h: Array[Double]): BatchBackend.VertexRow = (id, h, out.ids, out.ws, hubIn.ids, hubIn.ws)
}

object EdgeLists {

  /** The most vertices one map task folds lists for before it emits their
    * pieces and starts over: far above a benchmark task's few thousand, and
    * a bound on the fold's memory where a task sees more.
    */
  val FoldCap = 65536

  /** In-mapper folding of one map task's edges `(src, dst, w)`: a hub edge
    * (its source in `hubs`) goes to its receiver's `hubIn`, any other edge
    * to its source's `out`, and each vertex the task saw leaves as one piece,
    * a vertex record with a null state. Past `cap` vertices the fold emits
    * its pieces and starts over, so a vertex may have several pieces; the
    * round-0 join concatenates them.
    */
  def pieces(edges: Iterator[(Long, Long, Double)], hubs: Set[Long],
             cap: Int = FoldCap): Iterator[BatchBackend.VertexRow] =
    Iterator.continually {
      val lists = mutable.LongMap.empty[EdgeLists]
      while (lists.size < cap && edges.hasNext) {
        val (src, dst, w) = edges.next()
        require(java.lang.Double.isFinite(w), s"non-finite weight $w on edge $src -> $dst")
        if (hubs(src)) lists.getOrElseUpdate(dst, new EdgeLists).hubIn.add(src, w)
        else lists.getOrElseUpdate(src, new EdgeLists).out.add(dst, w)
      }
      lists
    }.takeWhile(_.nonEmpty).flatMap(_.iterator.map { case (id, l) => l.row(id, null) })
}

/** `n` edges, the vertex at their other end and their weight, in two arrays
  * grown in place, so a long list is never copied per edge.
  */
final class EdgeList {
  private var n = 0
  private var others = Array.emptyLongArray
  private var weights = Array.emptyDoubleArray

  def add(other: Long, w: Double): Unit = {
    if (n == others.length) {
      others = java.util.Arrays.copyOf(others, math.max(4, 2 * n))
      weights = java.util.Arrays.copyOf(weights, math.max(4, 2 * n))
    }
    others(n) = other
    weights(n) = w
    n += 1
  }

  /** Appends the edges `others`, `weights`; null adds none. */
  def addAll(others: Array[Long], weights: Array[Double]): Unit =
    if (others != null) others.indices.foreach(i => add(others(i), weights(i)))

  /** The vertices at the other end, trimmed; null for an empty list. */
  def ids: Array[Long] = if (n == 0) null else others.take(n)

  /** The weights, trimmed; null for an empty list. */
  def ws: Array[Double] = if (n == 0) null else weights.take(n)
}

/** One record of a round's reduce, keyed by the receiving vertex: its own
  * state (`h`, with its out-edge list `dsts`, `ws` to hand on and its
  * in-edges from broadcast hubs `hubSrcs`, `hubWs`, to resolve and to hand
  * on), or an edge message (`m`, `w`; the raw source payload for a
  * `readsDst` layer). A record of [[RoundFold.combine]] may carry a state and
  * a message, the receiver's combined aggregate, at once; its hub in-edges
  * are then already resolved into the message.
  */
final case class RoundIn(key: Long, h: Array[Double], m: Array[Double], w: Double,
                         dsts: Array[Long], ws: Array[Double], hubSrcs: Array[Long], hubWs: Array[Double])

/** A receiver's partial fold: its state and lists (null until the state
  * record arrives, and `key` with them), the receiver's own payload for a
  * `readsDst` layer (computed when the state is folded; null otherwise) and
  * the gathered messages, the resolved hub in-edges among them.
  */
final case class RoundBuf(key: Long, h: Array[Double], dsts: Array[Long], ws: Array[Double],
                          hubSrcs: Array[Long], hubWs: Array[Double], payload: Array[Double], agg: Agg)

/** A vertex record after the round: the new state and both lists, handed on
  * unchanged (the last round keeps only `id` and `h`).
  */
final case class RoundOut(id: Long, h: Array[Double], dsts: Array[Long], ws: Array[Double],
                          hubSrcs: Array[Long], hubWs: Array[Double])

/** The fold of one MR round. `reduce` only gathers, so a map task may run it
  * over its own records first ([[combine]], the combiner); `finish` runs
  * `apply_node`.
  *
  * A receiver's hub in-edges arrive with its state and are resolved with
  * `hubPayload` (a lookup in the round's broadcast) when that state is
  * folded (a hub with no node row has no payload and sends nothing), each
  * exactly once: a state record that also carries a message comes from the
  * combiner, which has resolved them into it already.
  *
  * A `readsDst` layer's messages, hub payloads included, are raw source
  * payloads, and the reduce must see the receiver's state first (the round
  * sorts each group so): folding the state computes the receiver's payload
  * once, and each raw payload then goes through `apply_edge` into the
  * aggregate as it arrives. A message before any state has no receiver and
  * is dropped.
  */
final class RoundFold(layer: GasLayer, hubPayload: Long => Option[Array[Double]]) extends Serializable {

  private val readsDst = layer.signature.readsDst

  val zero: RoundBuf = RoundBuf(0L, null, null, null, null, null, null, EmptyAgg)

  def reduce(b: RoundBuf, r: RoundIn): RoundBuf =
    if (r.h == null) {
      if (readsDst && b.h == null) b // no state came first, so there is none
      else b.copy(agg = Agg.merge(message(b, r.m, r.w), b.agg))
    } else {
      require(b.h == null, s"duplicate vertex id ${r.key} in the node table")
      val s = RoundBuf(r.key, r.h, r.dsts, r.ws, r.hubSrcs, r.hubWs,
        if (readsDst) layer.scatterPayload(r.h) else null, b.agg)
      val msgs = if (r.m != null) Iterator.single(message(s, r.m, r.w)) else hubMessages(s)
      s.copy(agg = msgs.foldLeft(s.agg)((acc, m) => Agg.merge(m, acc)))
    }

  /** One record's message to `b`: a raw source payload for a `readsDst` layer. */
  private def message(b: RoundBuf, m: Array[Double], w: Double): Agg =
    if (readsDst) edge(b, m, w) else layer.initAgg(m, w)

  /** `apply_edge` on the source payload `p` over an edge of weight `w` into
    * `b`, whose own payload follows `p` for a `readsDst` layer.
    */
  private def edge(b: RoundBuf, p: Array[Double], w: Double): Agg =
    layer.initAgg(layer.applyEdge(if (readsDst) VecOps.concat(p, b.payload) else p, w), w)

  /** The messages over `b`'s hub in-edges whose hub has a payload. */
  private def hubMessages(b: RoundBuf): Iterator[Agg] =
    if (b.hubSrcs == null) Iterator.empty
    else b.hubSrcs.indices.iterator.flatMap(i => hubPayload(b.hubSrcs(i)).map(edge(b, _, b.hubWs(i))))

  /** In-mapper combining (Lin & Schatz, MLG 2010): folds one map task's
    * records per receiver in a hash map and emits one record per receiver,
    * its state and lists if the task held them and its gathered aggregate,
    * hub in-edges resolved, as one message ([[RoundFold.asMessage]]). The
    * reduce folds these like any other record, so the result is exact
    * however a receiver's records are split; that is why, past `cap`
    * receivers, the map can be emitted and cleared to bound a task's memory.
    */
  def combine(records: Iterator[RoundIn], cap: Int = RoundFold.CombineCap): Iterator[RoundIn] = {
    require(!readsDst, "a layer that reads the receiver's payload cannot combine map-side")
    Iterator.continually {
      val bufs = mutable.HashMap.empty[Long, RoundBuf]
      while (bufs.size < cap && records.hasNext) {
        val r = records.next()
        bufs.update(r.key, reduce(bufs.getOrElse(r.key, zero), r))
      }
      bufs
    }.takeWhile(_.nonEmpty).flatMap(_.iterator.flatMap { case (key, b) =>
      // a state whose hub in-edges all lack a payload leaves with no
      // message; the reduce resolves them again, to nothing
      val (m, w) = b.agg match {
        case EmptyAgg => (null, 0.0)
        case agg      => RoundFold.asMessage(agg)
      }
      if (b.h == null && m == null) None else Some(RoundIn(key, b.h, m, w, b.dsts, b.ws, b.hubSrcs, b.hubWs))
    })
  }

  /** None for a key with no state: messages to a missing vertex are dropped. */
  def finish(b: RoundBuf): Option[RoundOut] =
    Option(b.h).map(h => RoundOut(b.key, layer.applyNode(h, b.agg), b.dsts, b.ws, b.hubSrcs, b.hubWs))
}

object RoundFold {

  /** The most receivers one map task folds before it emits them and starts
    * over: far above a benchmark task's few thousand, and a bound on the
    * combiner's memory where a task sees more.
    */
  val CombineCap = 65536

  /** A combined aggregate as the one message `(m, w)` that the layer's
    * `initAgg` lifts back to it: `Pooled(m, w)` (SAGE), or a [[SoftmaxPool]]
    * whose state is itself a message, its weight unused (GAT's `initAgg`).
    */
  def asMessage(agg: Agg): (Array[Double], Double) = agg match {
    case Pooled(s, w)      => (s, w)
    case SoftmaxPool(_, s) => (s, 1.0)
    case other             => throw new IllegalArgumentException(s"${other.getClass.getSimpleName} is not one message")
  }
}
