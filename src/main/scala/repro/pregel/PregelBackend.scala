package repro.pregel

import scala.collection.mutable
import org.apache.spark.HashPartitioner
import org.apache.spark.graphx.{Edge, Graph, TripletFields, VertexRDD}
import org.apache.spark.graphx.impl.GraphImpl
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._

/** InferTurbo on a Pregel-like graph-processing system — GraphX.
  *
  * Graph partition: GraphX hash-partitions vertices (the paper's `mod N`)
  * and each edge partition holds out-edges plus replicas of the vertices
  * they touch. One GNN layer is one superstep, run as one Spark job:
  *  - every vertex computes its out-message content `scatterPayload(h)` once;
  *  - GraphX ships each payload once per edge partition that holds one of
  *    its edges, and only `apply_edge` runs per edge. The send function
  *    reads the source side alone (`TripletFields.Src`), unless the layer's
  *    signature says `readsDst` (GAT): then it reads both ends
  *    (`TripletFields.All`) and `apply_edge` sees `srcPayload ++ dstPayload`;
  *  - the combiner (`mergeMsg`) implements the paper's partial-gather: for
  *    partial-gatherable layers (SAGE's weighted sum, GAT's online softmax)
  *    messages are reduced as they are merged, so each edge partition sends
  *    one fixed-size state per receiver; without it they are unioned and
  *    reduced in `apply_node`;
  *  - `apply_node` joins the gathered messages back onto `h`. Vertices that
  *    received nothing get [[EmptyAgg]], so every vertex advances every
  *    layer (the paper's systems always run k supersteps over all vertices).
  *
  * Each layer pairs its payloads with the one partitioned edge set and the
  * vertices' routing tables (`GraphImpl.fromExistingRDDs`), so no layer
  * re-partitions, copies the edges or diffs old against new vertices.
  *
  * Edges whose source or destination has no node row are dropped, as in
  * the MR backend: GraphX gives such an end a null state, which sends
  * nothing, receives nothing for a `readsDst` layer, stays null and is left
  * out of the output. A vertex id that appears twice in the node table
  * fails the run with an `IllegalArgumentException` naming the id, and a
  * NaN or infinite edge weight with one naming the edge.
  */
object PregelBackend {

  /** @param partialGather run the aggregate in the combiner when the layer
    *                      allows it (the paper's partial-gather strategy).
    */
  final case class PregelOpts(partialGather: Boolean = true)

  /** Full-graph inference; returns DataFrame(id LONG, h ARRAY&lt;DOUBLE&gt;). */
  def run(spark: SparkSession, nodes: DataFrame, edges: DataFrame, model: GnnModel,
          opts: PregelOpts = PregelOpts()): DataFrame = {
    val rows = nodes.select("id", "feat").rdd
      .map { r => val id = r.getLong(0); (id, model.input(id, r.getSeq[Double](1).toArray)) }
    // the partitioning Graph() would otherwise apply itself; it puts every
    // row of an id in one partition, so duplicates are caught while the
    // vertex partitions are built, with no extra job or shuffle
    val verts = rows.partitionBy(new HashPartitioner(rows.partitions.length))
      .mapPartitions({ it =>
        val seen = mutable.HashSet.empty[Long]
        it.map { row => require(seen.add(row._1), s"duplicate vertex id ${row._1} in the node table"); row }
      }, preservesPartitioning = true)
    val edgeRdd = edges.select("src", "dst", "w").rdd
      .map { r =>
        val (src, dst, w) = (r.getLong(0), r.getLong(1), r.getDouble(2))
        require(java.lang.Double.isFinite(w), s"non-finite weight $w on edge $src -> $dst")
        Edge(src, dst, w)
      }

    val graph = Graph(verts, edgeRdd)
    var h: VertexRDD[Array[Double]] = graph.vertices
    model.layers.foreach { layer =>
      val pg = opts.partialGather && layer.partialGather
      val readsDst = layer.signature.readsDst
      // aggregateMessages caches the payloads, so each is computed once; a
      // vertex with no node row has a null state and a null payload
      val payload = h.mapValues(x => if (x == null) null else layer.scatterPayload(x))
      val msgs = GraphImpl.fromExistingRDDs(payload, graph.edges).aggregateMessages[Agg](
        ctx => if (ctx.srcAttr != null && !(readsDst && ctx.dstAttr == null)) {
          val p = if (readsDst) VecOps.concat(ctx.srcAttr, ctx.dstAttr) else ctx.srcAttr
          val m = layer.applyEdge(p, ctx.attr)
          ctx.sendToDst(if (pg) layer.initAgg(m, ctx.attr) else Unioned(List((m, ctx.attr))))
        },
        // GraphX passes (accumulated, new): the new message goes on the left
        // so a Unioned list grows by prepending
        (acc, m) => Agg.merge(m, acc), if (readsDst) TripletFields.All else TripletFields.Src)
      val next = h.leftJoin(msgs)((_, x, agg) =>
        if (x == null) null else layer.applyNode(x, agg.getOrElse(EmptyAgg))).cache()
      next.count()
      payload.unpersist(blocking = false)
      h.unpersist(blocking = false)
      h = next
    }
    graph.edges.unpersist(blocking = false)

    import spark.implicits._
    h.filter(_._2 != null).map { case (id, x) => (id, x.toSeq) }.toDF("id", "h")
  }
}
