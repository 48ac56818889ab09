package repro.core

import java.io.{BufferedWriter, File, FileWriter}
import scala.io.Source
import repro.nn.DMat

/** Layer-wise model signature files.
  *
  * The paper saves, next to the weights, a per-layer signature recording the
  * stage annotations (notably whether `aggregate` is partial-gatherable) so
  * the inference deployment needs no manual configuration. This is a plain
  * text serialization: one `layer` header line carrying the [[LayerSig]],
  * followed by named weight matrices.
  *
  * The header's `partial` and `readsDst` annotations are written from the
  * layer's signature. Loading rebuilds each layer from its kind and weights,
  * so the annotations follow the code: a GAT file written as `partial=false`
  * (before GAT's aggregate became associative) loads as today's GAT.
  */
object ModelIO {

  def save(model: GnnModel, path: String): Unit = {
    val w = new BufferedWriter(new FileWriter(new File(path)))
    try {
      w.write(s"model multiLabel=${model.multiLabel} layers=${model.layers.size}\n")
      model.layers.foreach {
        case l @ SageLayer(ws, wn, b, act) =>
          w.write(s"layer kind=sage in=${ws.rows} out=${ws.cols} ${annotations(l)} act=${act.name}\n")
          writeMat(w, "wSelf", ws); writeMat(w, "wNbr", wn); writeMat(w, "bias", b)
        case g @ GatLayer(wm, aSrc, aDst, act, combine, alpha) =>
          w.write(s"layer kind=gat in=${g.inDim} outPerHead=${g.outPerHead} heads=${g.heads} " +
            s"${annotations(g)} act=${act.name} combine=$combine alpha=$alpha\n")
          wm.indices.foreach { k =>
            writeMat(w, s"w$k", wm(k))
            writeMat(w, s"aSrc$k", DMat.rowVec(aSrc(k)))
            writeMat(w, s"aDst$k", DMat.rowVec(aDst(k)))
          }
        case other => throw new IllegalArgumentException(s"cannot serialize ${other.getClass}")
      }
    } finally w.close()
  }

  private def annotations(l: GasLayer): String = {
    val sig = l.signature
    s"partial=${sig.partialGather} readsDst=${sig.readsDst}"
  }

  private def writeMat(w: BufferedWriter, name: String, m: DMat): Unit = {
    w.write(s"mat $name ${m.rows} ${m.cols}\n")
    w.write(m.a.map(java.lang.Double.toString).mkString(" "))
    w.write("\n")
  }

  def load(path: String): GnnModel = {
    val srcFile = Source.fromFile(path)
    try {
      val lines = srcFile.getLines().buffered
      val head = kv(lines.next())
      val multiLabel = head("multiLabel").toBoolean
      val nLayers = head("layers").toInt
      def readMat(expect: String): DMat = {
        val parts = lines.next().split(" ")
        require(parts(0) == "mat" && parts(1) == expect, s"expected mat $expect, got ${parts.mkString(" ")}")
        val (r, c) = (parts(2).toInt, parts(3).toInt)
        val data = lines.next().split(" ").map(_.toDouble)
        new DMat(r, c, data)
      }
      val layers = (0 until nLayers).map { _ =>
        val h = kv(lines.next())
        h("kind") match {
          case "sage" =>
            SageLayer(readMat("wSelf"), readMat("wNbr"), readMat("bias"), Act.of(h("act")))
          case "gat" =>
            val heads = h("heads").toInt
            val ws = new Array[DMat](heads)
            val aS = new Array[Array[Double]](heads)
            val aD = new Array[Array[Double]](heads)
            (0 until heads).foreach { k =>
              ws(k) = readMat(s"w$k"); aS(k) = readMat(s"aSrc$k").a; aD(k) = readMat(s"aDst$k").a
            }
            GatLayer(ws, aS, aD, Act.of(h("act")), h("combine"), h("alpha").toDouble)
          case other => throw new IllegalArgumentException(s"unknown layer kind $other")
        }
      }
      GnnModel(layers, multiLabel)
    } finally srcFile.close()
  }

  private def kv(line: String): Map[String, String] =
    line.split(" ").drop(1).map { t =>
      val Array(k, v) = t.split("=", 2); k -> v
    }.toMap
}
